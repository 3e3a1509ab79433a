// Fixture for the retain analyzer: the two production shapes, one rule
// each, both in one operator and each reported exactly once. The hit,
// miss, and ignore cases of each rule live in the arenaescape and
// batchretain fixtures.
package fixture

import (
	"repro/internal/datum"
	"repro/internal/exec"
)

type joinOp struct {
	left   exec.BatchIterator
	cur    exec.Batch
	curPos int
	keys   []datum.Datum
	nkeys  int
}

// hitNextBatchIntoOperatorField is the nested-loop join's refill: the
// left input's batch stored into the operator beside its cursor.
func (n *joinOp) hitNextBatchIntoOperatorField() error {
	b, err := n.left.NextBatch()
	if err != nil {
		return err
	}
	n.cur, n.curPos = b, 0 // want "storing a borrowed Batch into struct field \"cur\""
	return nil
}

// hitScratchIntoOperatorState is the hash-join build: key storage drawn
// from the query scratch and kept in the operator's table.
func (n *joinOp) hitScratchIntoOperatorState(s *exec.Scratch, rows int) {
	n.keys, n.nkeys = s.MakeDatums(rows), 1 // want "storing an arena-backed value into struct field \"keys\""
}

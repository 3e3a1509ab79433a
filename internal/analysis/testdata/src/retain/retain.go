// Fixture for the retain analyzer: the two production shapes, one rule
// each, both in one operator and each reported exactly once, and operator
// objects built by exec.New in both directions. The hit, miss, and ignore
// cases of each rule live in the arenaescape and batchretain fixtures.
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
	n.keys, n.nkeys = exec.Make[datum.Datum](s, rows), 1 // want "storing an arena-backed value into struct field \"keys\""
}

// filterOp and scanOp stand in for operators a plan build draws from the
// query scratch with exec.New.
type filterOp struct {
	in   exec.BatchIterator
	keys []datum.Datum
}

func (*filterOp) NextBatch() (exec.Batch, error) { return nil, nil }
func (*filterOp) Close()                         {}

type scanOp struct{ rows []datum.Row }

func (*scanOp) NextBatch() (exec.Batch, error) { return nil, nil }
func (*scanOp) Close()                         {}

// session is heap state that outlives any one query.
type session struct{ last exec.BatchIterator }

var lastOp exec.BatchIterator

var ops = make(chan exec.BatchIterator, 1)

// hitScratchOperatorIntoHeapField: a heap object keeps a scratch-built
// operator past the query.
func hitScratchOperatorIntoHeapField(s *exec.Scratch, sess *session) {
	op := exec.New(s, filterOp{})
	sess.last = op // want "storing an arena-backed value into struct field \"last\""
}

func hitScratchOperatorIntoGlobal(s *exec.Scratch) {
	lastOp = exec.New(s, scanOp{}) // want "storing an arena-backed value into package variable \"lastOp\""
}

func hitScratchOperatorIntoChannel(s *exec.Scratch) {
	ops <- exec.New(s, scanOp{}) // want "storing an arena-backed value into a channel"
}

// hitInputFromAnotherScratch: the two objects come from different
// allocators, so the input may die first.
func hitInputFromAnotherScratch(s, other *exec.Scratch) exec.BatchIterator {
	op := exec.New(s, filterOp{})
	op.in = exec.New(other, scanOp{}) // want "storing an arena-backed value into struct field \"in\""
	return op
}

// missOperatorHoldsItsInput: an operator and the input it holds come from
// the same scratch and die together.
func missOperatorHoldsItsInput(s *exec.Scratch, rows []datum.Row) exec.BatchIterator {
	in := exec.New(s, scanOp{rows: rows})
	op := exec.New(s, filterOp{})
	op.in = in
	op.keys = exec.Make[datum.Datum](s, 4)
	return op
}

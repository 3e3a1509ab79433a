// Fixture for the retain analyzer's Batch aliasing rule: hit, miss, and
// ignore cases.
package fixture

import (
	"repro/internal/datum"
	"repro/internal/exec"
)

type retainer struct {
	cur exec.Batch
	all []exec.Batch
}

var global exec.Batch

func (r *retainer) hitFieldStore(b exec.Batch) {
	r.cur = b // want "storing a borrowed Batch into struct field \"cur\""
}

func (r *retainer) hitTupleStore(it exec.BatchIterator) error {
	var err error
	r.cur, err = it.NextBatch() // want "storing a borrowed Batch into struct field \"cur\""
	return err
}

func (r *retainer) hitIndexedFieldStore(b exec.Batch) {
	r.all[0] = b // want "storing a borrowed Batch into struct field \"all\""
}

func (r *retainer) hitConversionStore(rows []datum.Row) {
	r.cur = exec.Batch(rows) // want "storing a borrowed Batch into struct field \"cur\""
}

func hitGlobalBatchStore(b exec.Batch) {
	global = b // want "storing a borrowed Batch into package variable \"global\""
}

func (r *retainer) missDeepCopy(b exec.Batch) {
	r.cur = append(exec.Batch(nil), b...)
}

func (r *retainer) missClear() {
	r.cur = nil
}

func (r *retainer) missOwnBufferReslice(it exec.BatchIterator) error {
	b, err := it.NextBatch()
	out := r.cur[:0]
	for _, row := range b {
		out = append(out, row)
	}
	r.cur = out // the operator's own container, refilled
	return err
}

func (r *retainer) missOwnBufferThroughCall(it exec.BatchIterator) error {
	b, err := it.NextBatch()
	if err != nil {
		return err
	}
	out, err := exec.FilterBatch(nil, b, r.cur[:0])
	r.cur = out // the callee filled the buffer it was handed
	return err
}

func (r *retainer) hitProducerBatchViaLocal(it exec.BatchIterator) {
	b, _ := it.NextBatch()
	r.cur = b // want "storing a borrowed Batch into struct field \"cur\""
}

func (r *retainer) hitOwnBufferOverwritten(it exec.BatchIterator) {
	out := r.cur[:0]
	out, _ = it.NextBatch()
	r.cur = out // want "storing a borrowed Batch into struct field \"cur\""
}

func missLocal(b exec.Batch) exec.Batch {
	var local exec.Batch
	local = b // locals die with the frame; not a retention target
	return local
}

func (r *retainer) ignored(b exec.Batch) {
	//lint:ignore retain fixture: consumed before the next NextBatch call
	r.cur = b
}

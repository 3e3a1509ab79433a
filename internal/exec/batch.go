package exec

import (
	"sync/atomic"

	"repro/internal/datum"
)

// DefaultBatchSize is the row count per execution batch when Options does
// not override it. Large enough to amortize per-call dispatch, small
// enough to stay cache-resident.
const DefaultBatchSize = 1024

// Batch is a chunk of rows flowing between operators. A batch returned by
// NextBatch is valid only until the next NextBatch or Close call on the
// same iterator — operators reuse the container. The rows inside a batch,
// however, are immutable once emitted and may be retained indefinitely
// (materializing operators keep references instead of copying).
type Batch []datum.Row

// BatchIterator is the vectorized operator cursor. NextBatch returns
// (nil, nil) at end of stream and never returns an empty non-nil batch.
type BatchIterator interface {
	NextBatch() (Batch, error)
	Close()
}

// sliceBatchIter serves a materialized row slice in batch-sized windows
// without copying. newSliceBatchIter draws it from the query scratch; the
// operators that materialize their output hold one by value.
type sliceBatchIter struct {
	rows []datum.Row
	pos  int
	size int
}

func newSliceBatchIter(s *Scratch, rows []datum.Row, size int) *sliceBatchIter {
	return New(s, windows(rows, size))
}

// windows serves rows size at a time (DefaultBatchSize when size <= 0).
func windows(rows []datum.Row, size int) sliceBatchIter {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return sliceBatchIter{rows: rows, size: size}
}

func (s *sliceBatchIter) NextBatch() (Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + s.size
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := Batch(s.rows[s.pos:end])
	s.pos = end
	return b, nil
}

func (s *sliceBatchIter) Close() {}

// DrainBatches materializes the remaining rows of a batch iterator and
// closes it.
func DrainBatches(it BatchIterator) ([]datum.Row, error) {
	return DrainBatchesScratch(it, nil)
}

// DrainBatchesScratch is DrainBatches with the accumulation buffer grown
// from the query's scratch allocator instead of the heap. The returned
// slice dies with the scratch: callers must copy anything that outlives
// the query (the engine block-copies result rows at its boundary). A nil
// scratch falls back to heap accumulation.
func DrainBatchesScratch(it BatchIterator, s *Scratch) ([]datum.Row, error) {
	defer it.Close()
	return drainBatchesScratch(it, s)
}

// drainBatchesScratch materializes without closing (for operators that
// close their inputs themselves), growing the accumulation buffer from s
// (heap when s is nil). The buffer is the caller's to reorder.
func drainBatchesScratch(it BatchIterator, s *Scratch) ([]datum.Row, error) {
	var out []datum.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(growRows(s, out, len(b)), b...)
	}
}

// CloneRows block-copies rows into s (the heap when s is nil): one datum
// block and one row-header slice, each row capped at its own length and
// sharing no memory with rows. A copy into s dies with s.
func CloneRows(s *Scratch, rows []datum.Row) []datum.Row {
	if len(rows) == 0 {
		return rows
	}
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat, out := Make[datum.Datum](s, total), Make[datum.Row](s, len(rows))
	for i, r := range rows {
		n := copy(flat, r)
		out[i], flat = flat[:n:n], flat[n:]
	}
	return out
}

// growRows returns rows with room for extra more, regrown from s to twice
// its capacity (at least 64 rows) when full. With a nil s it returns rows
// as is and leaves the growth to append, on the heap.
func growRows(s *Scratch, rows []datum.Row, extra int) []datum.Row {
	need := len(rows) + extra
	if s == nil || need <= cap(rows) {
		return rows
	}
	grown := Make[datum.Row](s, max(2*cap(rows), need, 64))[:len(rows)]
	copy(grown, rows)
	return grown
}

// ExecStats accumulates execution-wide counters across all operators of
// one query. Safe for concurrent use by exchange workers.
type ExecStats struct {
	batches     atomic.Int64
	parallelism atomic.Int64
	prefetches  atomic.Int64
}

// Batches returns the total number of batches produced by all operators.
func (s *ExecStats) Batches() int64 { return s.batches.Load() }

// Prefetches returns how many fetches ran on a goroutine of their own
// (see Options.Parallel), re-plan attempts included.
func (s *ExecStats) Prefetches() int64 { return s.prefetches.Load() }

// MaxParallelism returns the widest worker pool any operator ran with
// (1 when everything executed sequentially).
func (s *ExecStats) MaxParallelism() int {
	if p := s.parallelism.Load(); p > 1 {
		return int(p)
	}
	return 1
}

func (s *ExecStats) addBatch() { s.batches.Add(1) }

// notePrefetch counts one prefetch goroutine (nil-safe).
func (s *ExecStats) notePrefetch() {
	if s != nil {
		s.prefetches.Add(1)
	}
}

// noteParallelism raises the watermark to d (nil-safe: stats are optional).
func (s *ExecStats) noteParallelism(d int) {
	for s != nil {
		cur := s.parallelism.Load()
		if int64(d) <= cur || s.parallelism.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

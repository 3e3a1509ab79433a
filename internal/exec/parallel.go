package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
)

// parallelMinRows is the materialized input size below which partitioned
// build/aggregation falls back to the sequential path: fan-out overhead
// would dominate smaller inputs.
const parallelMinRows = 2048

// morselRows is the row-range granularity workers claim during
// materialized parallel phases (join build key evaluation, aggregation
// argument evaluation).
const morselRows = 1024

// aggWindow is the most input rows partitioned aggregation holds at once.
const aggWindow = 8 * morselRows

// exchangeIter is the ordered exchange operator behind morsel-driven
// parallelism: a feeder goroutine hands input batches (tagged with a
// sequence number) to a bounded worker pool, each worker applies fn, and
// the merger re-emits results in input order. Because output order is
// exactly input order, operators above an exchange — including Sort and
// Limit — see the same stream a sequential plan produces.
//
// Cancellation contract: Close (idempotent) stops the feeder and workers
// via the done channel, waits for them to exit, then closes the input.
// After natural EOF all goroutines have already returned; Close then only
// closes the input. No goroutines survive Close. Cancelling the query
// context has the same effect as Close on the pool — feeder, workers and
// merger all select on ctx.Done() and abort within one batch — but the
// caller must still Close to join the goroutines and release the input.
type exchangeIter struct {
	ctx     context.Context
	scratch *Scratch
	in      BatchIterator
	fn      func(worker int, b Batch) (Batch, error)
	workers int

	started bool
	tasks   chan exchangeTask
	results chan exchangeResult
	feed    chan exchangeResult // feeder's terminal state: last seq + input error
	done    chan struct{}
	wg      sync.WaitGroup // feeder + workers + closer

	pending map[int64]exchangeResult
	nextSeq int64
	endSeq  int64 // first seq past the input; valid once feedEnd
	feedEnd bool
	feedErr error
	err     error

	closeOnce sync.Once
}

type exchangeTask struct {
	seq int64
	b   Batch
}

type exchangeResult struct {
	seq int64
	b   Batch
	err error
}

// newExchange wraps in with a worker pool of the given degree, copying
// input batches into containers from s (heap when s is nil). fn must be
// safe for concurrent invocation with distinct worker ids and must return
// batches it does not reuse (the merger buffers out-of-order results); an
// empty result batch is fine and is skipped on merge.
func newExchange(ctx context.Context, s *Scratch, in BatchIterator, degree int, fn func(worker int, b Batch) (Batch, error)) *exchangeIter {
	return &exchangeIter{ctx: ctx, scratch: s, in: in, fn: fn, workers: degree}
}

func (e *exchangeIter) start() {
	e.started = true
	e.tasks = make(chan exchangeTask)
	e.results = make(chan exchangeResult, e.workers)
	e.feed = make(chan exchangeResult, 1)
	e.done = make(chan struct{})
	e.pending = make(map[int64]exchangeResult)

	// Feeder: the single reader of the input. Input batches are reused by
	// the producer, so each one is copied (container only, into the query
	// scratch) before it crosses into the pool.
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		seq := int64(0)
		var ferr error
		for {
			b, err := e.in.NextBatch()
			if err != nil {
				ferr = err
				break
			}
			if b == nil {
				break
			}
			cp := Batch(e.scratch.MakeRows(len(b)))
			copy(cp, b)
			select {
			case e.tasks <- exchangeTask{seq: seq, b: cp}:
				seq++
			case <-e.done:
				close(e.tasks)
				return
			case <-e.ctx.Done():
				close(e.tasks)
				return
			}
		}
		e.feed <- exchangeResult{seq: seq, err: ferr}
		close(e.tasks)
	}()

	var workerWG sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		w := w
		e.wg.Add(1)
		workerWG.Add(1)
		go func() {
			defer e.wg.Done()
			defer workerWG.Done()
			for t := range e.tasks {
				out, err := e.fn(w, t.b)
				select {
				case e.results <- exchangeResult{seq: t.seq, b: out, err: err}:
				case <-e.done:
					return
				case <-e.ctx.Done():
					return
				}
			}
		}()
	}

	// Closer: once every worker has exited, no more results can arrive.
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		workerWG.Wait()
		close(e.results)
	}()
}

func (e *exchangeIter) NextBatch() (Batch, error) {
	if e.err != nil {
		return nil, e.err
	}
	if cerr := e.ctx.Err(); cerr != nil {
		e.err = cerr
		return nil, cerr
	}
	if !e.started {
		e.start()
	}
	for {
		if r, ok := e.pending[e.nextSeq]; ok {
			delete(e.pending, e.nextSeq)
			e.nextSeq++
			if r.err != nil {
				e.err = r.err
				return nil, r.err
			}
			if len(r.b) == 0 {
				continue
			}
			return r.b, nil
		}
		if e.feedEnd && e.nextSeq >= e.endSeq {
			if e.feedErr != nil {
				e.err = e.feedErr
				return nil, e.err
			}
			return nil, nil
		}
		select {
		case r, ok := <-e.results:
			if !ok {
				// results is closed only after every worker exited, and a
				// closed channel still yields its buffered values first —
				// everything produced is already in pending. A missing
				// nextSeq can never arrive now.
				if !e.feedEnd {
					select {
					case f := <-e.feed:
						e.endSeq, e.feedErr, e.feedEnd = f.seq, f.err, true
					default:
						return nil, nil // Close raced us mid-stream
					}
				}
				if _, ok := e.pending[e.nextSeq]; !ok {
					if e.feedErr != nil {
						e.err = e.feedErr
						return nil, e.err
					}
					return nil, nil
				}
				continue
			}
			e.pending[r.seq] = r
		case f := <-e.feed:
			e.endSeq, e.feedErr, e.feedEnd = f.seq, f.err, true
		case <-e.ctx.Done():
			e.err = e.ctx.Err()
			return nil, e.err
		}
	}
}

func (e *exchangeIter) Close() {
	e.closeOnce.Do(func() {
		if e.started {
			close(e.done)
			// Drain results so workers blocked on a full channel can
			// observe done (buffered channel: receive is not required,
			// the select on done suffices) and wait for every goroutine.
			e.wg.Wait()
		}
		e.in.Close()
	})
}

// fanOut runs fn(w) for every w in [0, workers), each on its own goroutine,
// and waits for all of them: the one place a materialized phase (join
// build, partitioned aggregation) spawns goroutines. It returns the
// lowest-numbered worker's error.
func fanOut(workers int, fn func(w int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// morsels covers [0, n) with fn(lo, hi) over ranges of morselRows rows that
// workers claim one at a time; a worker stops at its first error.
func morsels(n, workers int, fn func(lo, hi int) error) error {
	var next atomic.Int64
	return fanOut(workers, func(int) error {
		for {
			lo := int(next.Add(morselRows)) - morselRows
			if lo >= n {
				return nil
			}
			if err := fn(lo, min(lo+morselRows, n)); err != nil {
				return err
			}
		}
	})
}

// buildJoinTable materializes the right-side rows into a joinTable. With
// workers > 1 and enough rows, key evaluation runs over morsels in
// parallel and each worker then links one contiguous range of the index's
// slots: a row hashes to exactly one slot, so workers write disjoint
// elements, and every chain comes out in ascending row order exactly as
// the sequential build leaves it.
func buildJoinTable(t *joinTable, s *Scratch, rows []datum.Row, keyFns []EvalFunc, workers int) error {
	t.rows = rows
	t.nkeys = len(keyFns)
	n := len(rows)
	//lint:ignore retain joinTable is per-query operator state torn down before the scratch recycles
	t.keys, t.ix = s.MakeDatums(n*t.nkeys), newKeyIndex(s, n)
	null := s.MakeBools(n)
	slots := len(t.ix.head)

	if workers <= 1 || n < parallelMinRows {
		if err := t.evalRange(keyFns, null, 0, n); err != nil {
			return err
		}
		t.ix.link(null, 0, slots)
		return nil
	}

	// Phase 1: evaluate keys and hashes morsel by morsel.
	if err := morsels(n, workers, func(lo, hi int) error {
		return t.evalRange(keyFns, null, lo, hi)
	}); err != nil {
		return err
	}
	// Phase 2: each worker scans the hash array and links its slot range.
	return fanOut(workers, func(w int) error {
		t.ix.link(null, w*slots/workers, (w+1)*slots/workers)
		return nil
	})
}

// runParallel is the partitioned grouping path. It pulls its input a
// window of at most aggWindow rows at a time, evaluates the window's group
// keys, their hashes and aggregate arguments over morsels in parallel, then
// has each worker fold the window's rows whose key hash falls to it into
// its own group table, which persists across windows. A group lives in one
// partition and its rows are folded in ascending global row order, so
// per-group accumulation (float summation order included) is byte-identical
// to the sequential path, and merging the partitions by first-seen row
// restores its output order. A grand aggregation is one group, hence one
// busy partition: only argument evaluation parallelizes. An input under
// parallelMinRows, which the first window holds whole, runs sequentially.
//
// The window's buffers come from the query scratch once, sized by the first
// window, so memory is bounded by the window, not by the input.
func (a *aggregateBatchIter) runParallel() ([]datum.Row, error) {
	s := a.scratch
	var rows []datum.Row
	var b Batch // the input batch being consumed: valid until the next pull
	eof := false
	fill := func() (int, error) {
		rows = rows[:0]
		for len(rows) < aggWindow && !eof {
			if len(b) == 0 {
				next, err := a.in.NextBatch()
				if err != nil {
					return 0, err
				}
				b, eof = next, next == nil
			}
			c := min(len(b), aggWindow-len(rows))
			rows = append(growRows(s, rows, c), b[:c]...)
			b = b[c:]
		}
		return len(rows), nil
	}
	n, err := fill()
	if err != nil {
		return nil, err
	}
	if n < parallelMinRows {
		return a.runSequential(newSliceBatchIter(rows, a.size))
	}
	a.stats.noteParallelism(a.degree)

	nk, ns := len(a.groupFns), len(a.specs)
	keys, args, hashes := s.MakeDatums(n*nk), s.MakeDatums(n*ns), s.MakeUint64s(n)
	parts := uint64(a.degree)
	tables := make([]*groupTable, parts)
	for p := range tables {
		tables[p] = newGroupTable(s, nk, a.specs, (a.groups+a.degree-1)/a.degree)
	}
	for base := 0; n > 0; {
		// Phase 1: evaluate group keys and aggregate arguments per morsel.
		if err := morsels(n, a.degree, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				key := keys[i*nk : (i+1)*nk]
				if err := a.eval(rows[i], key, args[i*ns:(i+1)*ns]); err != nil {
					return err
				}
				hashes[i] = hashKey(key)
			}
			return nil
		}); err != nil {
			return nil, err
		}

		// Phase 2: each worker folds the rows of its partition, in order.
		if err := fanOut(a.degree, func(p int) error {
			for i := 0; i < n; i++ {
				if hashes[i]%parts != uint64(p) {
					continue
				}
				if err := tables[p].fold(keys[i*nk:(i+1)*nk], hashes[i], base+i, args[i*ns:(i+1)*ns]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		base += n
		if n, err = fill(); err != nil {
			return nil, err
		}
	}

	// Phase 3: merge partitions back into first-seen order.
	return finalizeGroups(s, tables...)
}

package exec

import (
	"context"
	"sort"

	"repro/internal/datum"
	"repro/internal/plan"
)

// --- Filter ---

type filterBatchIter struct {
	in      BatchIterator
	pred    EvalFunc
	out     Batch
	scratch *Scratch
}

func (f *filterBatchIter) NextBatch() (Batch, error) {
	for {
		b, err := f.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if f.scratch != nil && cap(f.out) < len(b) {
			f.out = Batch(f.scratch.MakeRows(len(b)))
		}
		out, err := FilterBatch(f.pred, b, f.out[:0])
		if err != nil {
			return nil, err
		}
		f.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (f *filterBatchIter) Close() { f.in.Close() }

// --- Project ---

type projectBatchIter struct {
	in      BatchIterator
	exprs   []EvalFunc
	out     Batch
	scratch *Scratch
}

func (p *projectBatchIter) NextBatch() (Batch, error) {
	b, err := p.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if p.scratch != nil && cap(p.out) < len(b) {
		p.out = Batch(p.scratch.MakeRows(len(b)))
	}
	out, err := projectBatch(p.scratch, p.exprs, b, p.out[:0])
	if err != nil {
		return nil, err
	}
	p.out = out
	return out, nil
}

func (p *projectBatchIter) Close() { p.in.Close() }

// --- Joins ---

// joinTable is the build side of an equi-join: materialized rows, their
// precomputed key values (one flat arena, nkeys per row), and a keyIndex
// from key hash to row position. Chains list positions in ascending order
// whether the index was linked sequentially or by parallel workers, so a
// probe emits matches in build order either way (rows with NULL keys are
// never linked).
type joinTable struct {
	nkeys int
	rows  []datum.Row
	keys  []datum.Datum
	ix    keyIndex
}

func (t *joinTable) keyOf(i int32) datum.Row {
	return datum.Row(t.keys[int(i)*t.nkeys : (int(i)+1)*t.nkeys])
}

// evalRange evaluates keys and hashes for rows[lo:hi) into the arenas.
func (t *joinTable) evalRange(keyFns []EvalFunc, null []bool, lo, hi int) error {
	for i := lo; i < hi; i++ {
		key := t.keys[i*t.nkeys : (i+1)*t.nkeys]
		isNull := false
		for k, f := range keyFns {
			v, err := f(t.rows[i])
			if err != nil {
				return err
			}
			if v.IsNull() {
				isNull = true
				break
			}
			key[k] = v
		}
		null[i] = isNull
		if !isNull {
			t.ix.hashes[i] = hashKey(datum.Row(key))
		}
	}
	return nil
}

// probeBatch probes every row of b against the table, appending joined
// rows to dst, which it regrows from s. keyScratch must have len == nkeys
// and is reused across rows; joined and NULL-padded rows are carved from
// *block, refilled from s a block of rows at a time. Each caller (the
// sequential iterator, one exchange worker) owns its own keyScratch and
// block, which outlive the batch.
func (t *joinTable) probeBatch(s *Scratch, b Batch, leftKeys []EvalFunc, residual EvalFunc, leftJoin bool, rightArity int, keyScratch datum.Row, block *[]datum.Datum, dst Batch) (Batch, error) {
	for _, l := range b {
		matched := false
		null := false
		for i, f := range leftKeys {
			v, err := f(l)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				null = true
				break
			}
			keyScratch[i] = v
		}
		if !null {
			h := hashKey(keyScratch)
			for idx := t.ix.first(h); idx >= 0; idx = t.ix.after(idx, h) {
				if !datum.RowsEqual(keyScratch, t.keyOf(idx)) {
					continue // hash collision
				}
				right := t.rows[idx]
				joined := append(append(carveRow(s, block, len(l)+len(right)), l...), right...)
				if residual != nil {
					ok, err := EvalPredicate(residual, joined)
					if err != nil {
						return nil, err
					}
					if !ok {
						*block = (*block)[:len(*block)-len(joined)] // hand the row back
						continue
					}
				}
				matched = true
				dst = append(growRows(s, dst, 1), joined)
			}
		}
		if leftJoin && !matched {
			dst = append(growRows(s, dst, 1), appendNulls(append(carveRow(s, block, len(l)+rightArity), l...), rightArity))
		}
	}
	return dst, nil
}

// carveBlockDatums caps a carved block at the size of the scratch slabs'
// own regular blocks, so a released block serves any later request of the
// scratch and the parallel probes' blocks never force a larger one.
const carveBlockDatums = 1024

// carveRow returns an empty row with capacity n carved from *block, whose
// length counts the datums handed out and whose capacity is its size. A
// full block is replaced by a fresh one from s twice its size, from 16 rows
// up to carveBlockDatums (or one row, if wider): one scratch call per
// block, not one per row.
func carveRow(s *Scratch, block *[]datum.Datum, n int) datum.Row {
	b := *block
	if cap(b)-len(b) < n {
		b = s.MakeDatums(min(max(2*cap(b), 16*n), max(carveBlockDatums/n, 1)*n))[:0]
	}
	*block = b[:len(b)+n]
	return datum.Row(b[len(b) : len(b) : len(b)+n])
}

// hashJoinBatchIter implements equi-joins: it builds a hash table over the
// right input and probes with left batches. Residual non-equi predicates
// apply after key matching; LEFT joins null-pad unmatched left rows. With
// degree > 1 the build partitions by key hash across workers and the probe
// runs through an ordered exchange, so output order (and float arithmetic)
// is identical to the sequential plan.
type hashJoinBatchIter struct {
	ctx        context.Context
	left       BatchIterator
	right      BatchIterator
	leftKeys   []EvalFunc
	rightKeys  []EvalFunc
	residual   EvalFunc // may be nil
	leftJoin   bool
	rightArity int
	degree     int
	stats      *ExecStats
	scratch    *Scratch

	built bool
	table joinTable
	probe func(w int, b, dst Batch) (Batch, error) // w: the sequential iterator's 0, or an exchange worker
	out   Batch
	ex    BatchIterator // parallel probe; nil when sequential
}

func (h *hashJoinBatchIter) build() error {
	h.built = true
	rows, err := drainBatchesScratch(h.right, h.scratch)
	if err != nil {
		return err
	}
	if err := buildJoinTable(&h.table, h.scratch, rows, h.rightKeys, h.degree); err != nil {
		return err
	}
	// Per-prober state lives in these locals, which the probe closure
	// captures: a key buffer and a block pool each, kept across batches.
	nk := len(h.leftKeys)
	keys, blocks := make(datum.Row, h.degree*nk), make([][]datum.Datum, h.degree)
	h.probe = func(w int, b, dst Batch) (Batch, error) {
		return h.table.probeBatch(h.scratch, b, h.leftKeys, h.residual, h.leftJoin, h.rightArity, keys[w*nk:(w+1)*nk], &blocks[w], dst)
	}
	if h.degree > 1 {
		h.stats.noteParallelism(h.degree)
		h.ex = newExchange(h.ctx, h.scratch, h.left, h.degree, func(w int, b Batch) (Batch, error) {
			return h.probe(w, b, Batch(h.scratch.MakeRows(len(b)))[:0])
		})
	}
	return nil
}

func (h *hashJoinBatchIter) NextBatch() (Batch, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	if h.ex != nil {
		return h.ex.NextBatch()
	}
	for {
		b, err := h.left.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		out, err := h.probe(0, b, h.out[:0])
		if err != nil {
			return nil, err
		}
		h.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (h *hashJoinBatchIter) Close() {
	if h.ex != nil {
		h.ex.Close() // closes h.left underneath
	} else {
		h.left.Close()
	}
	h.right.Close()
}

func hashKey(key datum.Row) uint64 {
	h := uint64(1469598103934665603)
	for _, d := range key {
		h ^= d.Hash()
		h *= 1099511628211
	}
	return h
}

// appendNulls appends n NULLs to r: the right half of a LEFT JOIN's padded
// row.
func appendNulls(r datum.Row, n int) datum.Row {
	for range n {
		r = append(r, datum.Null)
	}
	return r
}

// nestedLoopBatchIter implements joins without equi-keys: it materializes
// the right input and scans it per left row, emitting output in bounded
// batches so LIMIT above a wide cross join still stops early.
type nestedLoopBatchIter struct {
	left       BatchIterator
	right      BatchIterator
	cond       EvalFunc // may be nil (cross join)
	leftJoin   bool
	rightArity int
	size       int
	scratch    *Scratch

	rightRows []datum.Row
	built     bool
	cur       Batch
	curPos    int
	rightPos  int
	matched   bool
	out       Batch
}

func (n *nestedLoopBatchIter) NextBatch() (Batch, error) {
	if !n.built {
		rows, err := drainBatchesScratch(n.right, n.scratch)
		if err != nil {
			return nil, err
		}
		n.rightRows = rows
		n.built = true
	}
	out := n.out[:0]
	for {
		if n.curPos >= len(n.cur) {
			if len(out) >= n.size {
				break
			}
			b, err := n.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if len(out) == 0 {
					return nil, nil
				}
				break
			}
			//lint:ignore retain cur is fully consumed before the next NextBatch call refills it
			n.cur, n.curPos, n.rightPos, n.matched = b, 0, 0, false
		}
		l := n.cur[n.curPos]
		for n.rightPos < len(n.rightRows) {
			right := n.rightRows[n.rightPos]
			n.rightPos++
			joined := append(append(make(datum.Row, 0, len(l)+len(right)), l...), right...)
			if n.cond != nil {
				ok, err := EvalPredicate(n.cond, joined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			n.matched = true
			out = append(out, joined)
		}
		if n.leftJoin && !n.matched {
			out = append(out, appendNulls(append(make(datum.Row, 0, len(l)+n.rightArity), l...), n.rightArity))
		}
		n.curPos++
		n.rightPos, n.matched = 0, false
	}
	n.out = out
	return out, nil
}

func (n *nestedLoopBatchIter) Close() {
	n.left.Close()
	n.right.Close()
}

// --- Aggregate ---

type aggregateBatchIter struct {
	in       BatchIterator
	groupFns []EvalFunc
	specs    []plan.AggSpec
	argFns   []EvalFunc // nil entries for COUNT(*)
	groups   int        // the optimizer's group estimate; 0 when unknown
	degree   int
	size     int
	stats    *ExecStats
	scratch  *Scratch

	out *sliceBatchIter // the grouped rows; nil until the input is consumed
}

// eval evaluates r's group key into key and its aggregate arguments into
// args; a COUNT(*) has none and its slot is left alone.
func (a *aggregateBatchIter) eval(r datum.Row, key, args []datum.Datum) (err error) {
	for k, f := range a.groupFns {
		if key[k], err = f(r); err != nil {
			return err
		}
	}
	for j, f := range a.argFns {
		if f == nil {
			continue
		}
		if args[j], err = f(r); err != nil {
			return err
		}
	}
	return nil
}

// runSequential groups in one pass over in, in batch order.
func (a *aggregateBatchIter) runSequential(in BatchIterator) ([]datum.Row, error) {
	t := newGroupTable(a.scratch, len(a.groupFns), a.specs, a.groups)
	key, args := make(datum.Row, len(a.groupFns)), make(datum.Row, len(a.specs))
	if len(key) == 0 {
		t.group(key, hashKey(key), 0) // a grand aggregate has its one group even over no input
	}
	for idx := 0; ; {
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return finalizeGroups(a.scratch, t)
		}
		for _, r := range b {
			if err := a.eval(r, key, args); err != nil {
				return nil, err
			}
			if err := t.fold(key, hashKey(key), idx, args); err != nil {
				return nil, err
			}
			idx++
		}
	}
}

func (a *aggregateBatchIter) NextBatch() (Batch, error) {
	if a.out == nil {
		run := a.runParallel
		if a.degree <= 1 {
			run = func() ([]datum.Row, error) { return a.runSequential(a.in) }
		}
		rows, err := run()
		if err != nil {
			return nil, err
		}
		a.out = newSliceBatchIter(rows, a.size)
	}
	return a.out.NextBatch()
}

func (a *aggregateBatchIter) Close() { a.in.Close() }

// --- Sort ---

type sortBatchIter struct {
	in      BatchIterator
	keys    []EvalFunc
	desc    []bool
	size    int
	scratch *Scratch

	done bool
	out  *sliceBatchIter
}

func (s *sortBatchIter) NextBatch() (Batch, error) {
	if !s.done {
		rows, err := drainBatchesScratch(s.in, s.scratch)
		if err != nil {
			return nil, err
		}
		type keyed struct {
			row datum.Row
			key datum.Row
		}
		ks := make([]keyed, len(rows))
		keyArena := datum.Row(s.scratch.MakeDatums(len(s.keys) * len(rows)))
		for i, r := range rows {
			key := keyArena[:len(s.keys):len(s.keys)]
			keyArena = keyArena[len(s.keys):]
			for j, f := range s.keys {
				if key[j], err = f(r); err != nil {
					return nil, err
				}
			}
			ks[i] = keyed{row: r, key: key}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			for k := range s.keys {
				c := datum.Compare(ks[i].key[k], ks[j].key[k])
				if c == 0 {
					continue
				}
				if s.desc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for i, k := range ks {
			rows[i] = k.row // the drained buffer is ours: sort it in place
		}
		s.out = newSliceBatchIter(rows, s.size)
		s.done = true
	}
	return s.out.NextBatch()
}

func (s *sortBatchIter) Close() { s.in.Close() }

// --- Limit ---

type limitBatchIter struct {
	in      BatchIterator
	count   int64 // -1 = unlimited
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitBatchIter) NextBatch() (Batch, error) {
	for {
		if l.count >= 0 && l.emitted >= l.count {
			return nil, nil
		}
		b, err := l.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if l.skipped < l.offset {
			drop := l.offset - l.skipped
			if drop > int64(len(b)) {
				drop = int64(len(b))
			}
			l.skipped += drop
			b = b[drop:]
		}
		if l.count >= 0 {
			if rem := l.count - l.emitted; int64(len(b)) > rem {
				b = b[:rem]
			}
		}
		if len(b) == 0 {
			continue
		}
		l.emitted += int64(len(b))
		return b, nil
	}
}

func (l *limitBatchIter) Close() { l.in.Close() }

// --- Distinct ---

// distinctBatchIter passes each row the first time it is seen: the whole
// row is the key of a group table with no aggregates.
type distinctBatchIter struct {
	in      BatchIterator
	scratch *Scratch
	seen    *groupTable
	out     Batch
}

func (d *distinctBatchIter) NextBatch() (Batch, error) {
	for {
		b, err := d.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		out := d.out[:0]
		for _, r := range b {
			if d.seen == nil {
				d.seen = newGroupTable(d.scratch, len(r), nil, 0)
			}
			if _, isNew := d.seen.group(r, hashKey(r), d.seen.len()); isNew {
				out = append(out, r)
			}
		}
		d.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (d *distinctBatchIter) Close() { d.in.Close() }

// --- Union ---

type unionBatchIter struct {
	inputs []BatchIterator
	pos    int
}

func (u *unionBatchIter) NextBatch() (Batch, error) {
	for u.pos < len(u.inputs) {
		b, err := u.inputs[u.pos].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.pos++
	}
	return nil, nil
}

func (u *unionBatchIter) Close() {
	for _, in := range u.inputs {
		in.Close()
	}
}

// --- Async prefetch (inter-source parallelism) ---

// prefetchBatchIter overlaps a fetch with the rest of the plan: fetch is
// kicked off immediately in a goroutine and the rows it returns are parked
// as they are — no re-drain copy — then served batch-windowed once ready.
// A cancelled query context unblocks the consumer immediately; the
// background fetch observes the same context through FetchRemote/
// BuildBatch, finishes early, parks its result and closes done whether or
// not anyone is still listening, so an abandoned prefetch never leaks.
type prefetchBatchIter struct {
	ctx   context.Context
	done  chan struct{} // closed once rows and err are parked
	ready bool          // the consumer has seen done
	err   error
	sliceBatchIter
}

func prefetchBatches(ctx context.Context, stats *ExecStats, size int, fetch func() ([]datum.Row, error)) BatchIterator {
	stats.notePrefetch()
	p := &prefetchBatchIter{ctx: ctx, done: make(chan struct{}), sliceBatchIter: *newSliceBatchIter(nil, size)}
	// The fetch may allocate from the query's scratch (remote subtrees
	// executed inside wrappers draw on it via the context). A consumer
	// that abandons this prefetch lets the goroutine outlive the query's
	// drain, so hold the scratch until the fetch parks its result —
	// PutScratch waits, keeping the next query from recycling rows this
	// goroutine still touches.
	scratch := ScratchFrom(ctx)
	scratch.Hold()
	go func() {
		defer scratch.Release()
		defer close(p.done)
		p.rows, p.err = fetch()
	}()
	return p
}

func (p *prefetchBatchIter) NextBatch() (Batch, error) {
	if !p.ready {
		select {
		case <-p.done:
			p.ready = true
		case <-p.ctx.Done():
			return nil, p.ctx.Err()
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.sliceBatchIter.NextBatch()
}

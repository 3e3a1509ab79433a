package exec

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/bloom"
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Runtime supplies the environment a plan executes in: how to read base
// tables and how to dispatch Remote subtrees. The mediator's runtime sends
// Remote subtrees to source wrappers over simulated links; a wrapper's own
// runtime binds Scans to its local tables and never sees Remote nodes.
// Both calls receive the query's context so scans and remote dispatches
// observe cancellation and deadlines, and both hand back materialized
// rows — every source answers with a slice, so the executor windows it
// into batches itself (sliceBatchIter) with no cursor in between. The
// returned rows are never mutated and may alias shared storage.
type Runtime interface {
	// ScanTable returns rows of scan's base table: all of them, or — the
	// scan node identifies its place in the plan — any subset that holds
	// every row the operators above the scan would let through.
	ScanTable(ctx context.Context, scan *plan.Scan) ([]datum.Row, error)
	// RunRemote executes a pushed-down subtree at the named source and
	// returns its result rows.
	RunRemote(ctx context.Context, source string, subtree plan.Node) ([]datum.Row, error)
}

// Options tunes plan execution.
type Options struct {
	// Parallel overlaps the Remote inputs of joins and unions
	// (inter-source prefetch). A fetch gets its own goroutine only where
	// the builder goes on to build a sibling that runs while it is in
	// flight: a join's left input and every union input but the last.
	// Every other fetch — the root, the last-built input, the semi-join
	// probe and its full-fetch fallback, and all of them when Parallel is
	// false — runs on the building goroutine, eagerly, at build time.
	Parallel bool
	// Parallelism caps the intra-query worker pool of each parallel
	// operator (morsel-driven parallelism): 0 means GOMAXPROCS, 1 forces
	// sequential execution. An operator only runs parallel when its plan
	// node carries a parallelism hint (the optimizer annotates hints from
	// estimated cardinality), so a zero-value Options — the wrappers'
	// local execution path — always stays sequential.
	Parallelism int
	// BatchSize is the row count per execution batch; 0 means
	// DefaultBatchSize. 1 degenerates to row-at-a-time execution.
	BatchSize int
	// Stats, when non-nil, accumulates batch and parallelism counters
	// across all operators of the query.
	Stats *ExecStats
	// Tracer, when non-nil, records one span per source-fetch attempt and
	// lends its clock to the operator boundary: with Cards also set, every
	// OpCard carries first/last pull stamps, which Tracer.Finish renders
	// as the per-operator spans of Result.Trace.
	Tracer *QueryTracer
	// MaxSemiJoinKeys caps the exact key list a semi-join reduction
	// (a join the optimizer hinted, see plan.Join.SemiJoin) ships to the
	// source as an IN-list; 0 means plan.DefaultSemiJoinKeyCap. Past it
	// the shipped list becomes a bloom filter of the keys (constant
	// bits/key, no false negatives); past plan.DefaultBloomKeyCap the
	// join falls back to a full fetch. The source evaluates either tier
	// with one hash per row — the IN-list compiles to a hashed set
	// (inSet), the bloom filter probes its bits — so both cost O(rows)
	// there, whatever the key count.
	MaxSemiJoinKeys int
	// Retry controls re-fetching of Remote subtrees after transient
	// failures (see FetchRemote). Zero value: single attempt.
	Retry RetryPolicy
	// Hooks, when non-nil, receives the retry/fault callbacks (backoff
	// charge, retry, failed attempt) as one interface value, so an engine
	// that implements FetchHooks on its per-query runtime allocates no
	// closure per query.
	Hooks FetchHooks
	// OnRemoteFail, when non-nil, is consulted after retries are
	// exhausted; returning ok=true substitutes the rows (replica fallback
	// or an empty result for partial-tolerant queries) instead of failing
	// the query.
	OnRemoteFail func(source string, subtree plan.Node, err error) ([]datum.Row, bool)
	// Governor, when non-nil, is the query's claim on the shared morsel
	// worker pool: each operator's exchange degree is additionally capped
	// by the ticket's current share, so concurrent queries split workers
	// by tenant priority instead of each taking the full machine.
	Governor *GovernorTicket
	// Memory, when non-nil, receives in-flight batch memory charges at
	// every operator boundary (admission control's per-tenant memory
	// quota). A Grow error aborts the query with the reservation's
	// structured overload error.
	Memory MemoryReservation
	// Scratch, when non-nil, is the query-scoped allocator batch
	// operators draw row headers and projected datums from; everything it
	// backs is recycled when the query finishes. Nil allocates from the
	// heap.
	Scratch *Scratch
	// Cards, when non-nil, is the per-operator record: every operator
	// boundary registers its OpCard there, with the row estimate its plan
	// node carries, and counts its output rows and batches into it, and
	// every successful fetch lists its FetchCard; explain, analyze, trace
	// and feedback all render from it. It costs a few ints per operator
	// and no allocation of its own, so it can run on every query.
	Cards *CardLedger
	// Replan arms the mid-query re-optimization tripwire (requires Cards)
	// on every fetch boundary whose node carries an estimate. See
	// ReplanPolicy.
	Replan ReplanPolicy
	// Prepared, when non-nil, holds expressions compiled ahead for nodes
	// of the plan, bound to this execution's values: a build takes those
	// nodes' expressions from it instead of compiling them (see Prepare).
	Prepared *Prepared
}

func (o Options) maxKeys() int {
	if o.MaxSemiJoinKeys <= 0 {
		return plan.DefaultSemiJoinKeyCap
	}
	return o.MaxSemiJoinKeys
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// workers resolves the effective degree for an operator whose plan node
// carries hint: the smaller of the hint and the pool cap. Unannotated
// nodes (hint <= 1) always run sequential.
func (o Options) workers(hint int) int {
	if hint <= 1 {
		return 1
	}
	max := o.Parallelism
	if max == 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max < 1 {
		max = 1
	}
	if share := o.Governor.Share(); share < max {
		max = share
	}
	if hint < max {
		return hint
	}
	return max
}

// BuildBatch compiles a logical plan into an executable batch iterator.
// The context threads into every scan, remote dispatch and parallel
// operator; a cancellable context additionally gives each operator
// boundary a per-batch cancellation check.
func BuildBatch(ctx context.Context, n plan.Node, rt Runtime, opts Options) (BatchIterator, error) {
	return buildBatch(ctx, n, rt, opts, false)
}

// buildBatch is BuildBatch for a subtree. overlap reports whether the
// builder goes on to build a sibling of n before anything pulls n — only
// then can a Remote inside n fetch on its own goroutine while that sibling
// builds or fetches (see Options.Parallel).
func buildBatch(ctx context.Context, n plan.Node, rt Runtime, opts Options, overlap bool) (BatchIterator, error) {
	it, err := buildNode(ctx, n, rt, opts, overlap)
	if err != nil {
		return nil, err
	}
	// Memory charging, cancellation checks, batch counting and the
	// per-operator record share one fused wrapper — the only decorator an
	// operator boundary ever gets. Every boundary pays for it, so it comes
	// from the query scratch like the operator it wraps: a guard costs the
	// heap nothing, and its OpCard, which the ledger lists by pointer, lives
	// exactly as long as the query that reads it.
	done := ctx.Done() // nil for a context-free leaf: no per-batch check
	if opts.Memory == nil && done == nil && opts.Stats == nil && opts.Cards == nil {
		return it, nil
	}
	g := New(opts.Scratch, guardBatchIter{in: it, mem: opts.Memory, stats: opts.Stats})
	if done != nil {
		g.ctx, g.done = ctx, done
	}
	if opts.Cards != nil {
		g.card = OpCard{Node: n, Est: n.EstRows()}
		opts.Cards.addOp(&g.card)
		if opts.Replan.enabled() && g.card.Est >= 0 && replanNode(n) {
			g.replan = opts.Replan
		}
		g.tracer = opts.Tracer
	}
	return g, nil
}

// replanNode reports whether the re-plan tripwire may arm on n: fetch
// boundaries only, because those are the estimates runtime feedback can
// correct. An interior operator (say, a join) that misestimates over
// correctly-estimated inputs would re-optimize to the same plan and trip
// again on every attempt — aborting there buys nothing but re-execution.
func replanNode(n plan.Node) bool {
	switch n.(type) {
	case *plan.Remote, *plan.Scan:
		return true
	}
	return false
}

// guardBatchIter is the fused per-operator boundary wrapper, and the only
// one: an optional cancellation check (every NextBatch pull polls
// ctx.Done() before asking the input for more work, so a cancelled query
// stops within one batch at every level of the operator tree; the poll
// is a non-blocking receive, where ctx.Err() would lock the context, and
// ctx.Err() runs only once the channel is closed), optional
// in-flight memory accounting (each pull releases the previous batch's
// charge and charges the new one; Close releases the residual), optional
// batch counting, and the operator's OpCard — owned here by value, listed
// in the ledger by pointer, written only by the goroutine pulling this
// operator.
type guardBatchIter struct {
	in      BatchIterator
	ctx     context.Context   // nil: no cancellation check
	done    <-chan struct{}   // ctx.Done(), polled per pull
	mem     MemoryReservation // nil: no memory accounting
	stats   *ExecStats        // nil: no batch counting
	tracer  *QueryTracer      // nil: no pull stamps on the record
	card    OpCard            // Node nil: no cardinality ledger
	replan  ReplanPolicy      // zero: tripwire disarmed
	charged int64
}

func (g *guardBatchIter) NextBatch() (Batch, error) {
	if g.done != nil {
		select {
		case <-g.done:
			return nil, g.ctx.Err()
		default:
		}
	}
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
	if g.tracer != nil && g.card.First.IsZero() {
		g.card.First = g.tracer.clock.Now()
	}
	b, err := g.in.NextBatch()
	if g.tracer != nil {
		g.card.Last = g.tracer.clock.Now()
	}
	if err != nil {
		return b, err
	}
	if g.mem != nil {
		if n := batchBytes(b); n > 0 {
			g.charged = n
			if gerr := g.mem.Grow(n); gerr != nil {
				return nil, gerr
			}
		}
	}
	if b != nil {
		if g.stats != nil {
			g.stats.addBatch()
		}
		if g.card.Node != nil {
			g.card.Rows += int64(len(b))
			g.card.Batches++
			// Mid-query re-plan tripwire: an operator that has already
			// produced Factor times its estimated rows (and a material
			// absolute amount) proves the plan was costed on a bad
			// estimate. Abort at this batch boundary; the engine
			// re-optimizes against the ledger and re-executes. Only
			// underestimates trip — overestimates waste nothing that is
			// recoverable mid-flight.
			if g.replan.enabled() && g.card.Rows >= g.replan.MinRows &&
				g.card.Rows > g.replan.Factor*g.card.Est {
				return nil, &ReplanError{Node: g.card.Node, Est: g.card.Est, Actual: g.card.Rows}
			}
		}
	}
	return b, nil
}

func (g *guardBatchIter) Close() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
	g.in.Close()
}

// buildNode compiles one plan node over its built inputs. Building is
// lazy except for fetches, which happen here; a unary operator pulls
// nothing until it is pulled, so it hands overlap down to its input.
//
// Every operator object — iterator, compiled expression tree, window —
// comes from opts.Scratch through New, Make and Compile. No closure here may
// capture opts: one that did would move buildNode's Options to the heap on
// every call, an allocation per operator built. The goroutine-spawning
// branches go through prefetchRemote and prefetchInput instead, and the
// exchange closures capture only what they use (`make escape` fences it).
func buildNode(ctx context.Context, n plan.Node, rt Runtime, opts Options, overlap bool) (BatchIterator, error) {
	s := opts.Scratch
	switch x := n.(type) {
	case *plan.Scan:
		if x.Source == "" && x.Table == "" {
			// FROM-less select: one empty row.
			return newSliceBatchIter(s, []datum.Row{{}}, opts.batchSize()), nil
		}
		rows, err := rt.ScanTable(ctx, x)
		if err != nil {
			return nil, err
		}
		return newSliceBatchIter(s, rows, opts.batchSize()), nil

	case *plan.Remote:
		if opts.Parallel && overlap {
			// The fetch starts now and overlaps the sibling built next;
			// the fetched slice is parked as is.
			return prefetchRemote(ctx, rt, opts, x), nil
		}
		rows, err := FetchRemote(ctx, rt, opts, x)
		if err != nil {
			return nil, err
		}
		return newSliceBatchIter(s, rows, opts.batchSize()), nil

	case *plan.Filter:
		in, err := buildBatch(ctx, x.Input, rt, opts, overlap)
		if err != nil {
			return nil, err
		}
		fns, err := compileNode(s, opts.Prepared, x)
		if err != nil {
			in.Close()
			return nil, err
		}
		pred := &fns[0]
		if deg := opts.workers(x.Parallel); deg > 1 {
			opts.Stats.noteParallelism(deg)
			return newExchange(ctx, s, in, deg, func(_ int, b Batch) (Batch, error) {
				return FilterBatch(pred, b, Batch(Make[datum.Row](s, len(b)))[:0])
			}), nil
		}
		return New(s, filterBatchIter{in: in, pred: pred, scratch: s}), nil

	case *plan.Project:
		in, err := buildBatch(ctx, x.Input, rt, opts, overlap)
		if err != nil {
			return nil, err
		}
		fns, err := compileNode(s, opts.Prepared, x)
		if err != nil {
			in.Close()
			return nil, err
		}
		if deg := opts.workers(x.Parallel); deg > 1 {
			opts.Stats.noteParallelism(deg)
			return newExchange(ctx, s, in, deg, func(_ int, b Batch) (Batch, error) {
				return projectBatch(s, fns, b, Batch(Make[datum.Row](s, len(b)))[:0])
			}), nil
		}
		return New(s, projectBatchIter{in: in, exprs: fns, scratch: s}), nil

	case *plan.Join:
		return buildJoin(ctx, x, rt, opts, overlap)

	case *plan.Aggregate:
		in, err := buildBatch(ctx, x.Input, rt, opts, overlap)
		if err != nil {
			return nil, err
		}
		// The group keys and the aggregates' arguments compile into one
		// block; a COUNT(*) has no argument and leaves a NULL.
		fns, err := compileNode(s, opts.Prepared, x)
		if err != nil {
			in.Close()
			return nil, err
		}
		return New(s, aggregateBatchIter{
			in: in, groupFns: fns[:len(x.GroupBy)], specs: x.Aggs, argFns: fns[len(x.GroupBy):],
			groups:  x.Groups,
			degree:  opts.workers(x.Parallel),
			size:    opts.batchSize(),
			stats:   opts.Stats,
			scratch: s,
		}), nil

	case *plan.Sort:
		in, err := buildBatch(ctx, x.Input, rt, opts, overlap)
		if err != nil {
			return nil, err
		}
		desc := Make[bool](s, len(x.Keys))
		for i, k := range x.Keys {
			desc[i] = k.Desc
		}
		keys, err := compileNode(s, opts.Prepared, x)
		if err != nil {
			in.Close()
			return nil, err
		}
		return New(s, sortBatchIter{in: in, keys: keys, desc: desc, size: opts.batchSize(), scratch: s}), nil

	case *plan.Limit:
		in, err := buildBatch(ctx, x.Input, rt, opts, overlap)
		if err != nil {
			return nil, err
		}
		return New(s, limitBatchIter{in: in, count: x.Count, offset: x.Offset}), nil

	case *plan.Distinct:
		in, err := buildBatch(ctx, x.Input, rt, opts, overlap)
		if err != nil {
			return nil, err
		}
		return New(s, distinctBatchIter{in: in, scratch: s}), nil

	case *plan.Union:
		last := len(x.Inputs) - 1
		inputs := Make[BatchIterator](s, len(x.Inputs))
		for i, child := range x.Inputs {
			if opts.Parallel && i < last {
				inputs[i] = prefetchInput(ctx, rt, opts, child)
				continue
			}
			in, err := buildBatch(ctx, child, rt, opts, i < last || overlap)
			if err != nil {
				for _, prev := range inputs[:i] {
					prev.Close()
				}
				return nil, err
			}
			inputs[i] = in
		}
		return New(s, unionBatchIter{inputs: inputs}), nil

	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// prefetchRemote starts x's fetch on a goroutine of its own, to overlap
// the sibling built next (see Options.Parallel).
func prefetchRemote(ctx context.Context, rt Runtime, opts Options, x *plan.Remote) BatchIterator {
	return prefetchBatches(ctx, opts.Stats, opts.batchSize(), func() ([]datum.Row, error) {
		return FetchRemote(ctx, rt, opts, x)
	})
}

// prefetchInput builds and drains a union input on a goroutine of its own
// while the later inputs build, into the query scratch the prefetch holds.
func prefetchInput(ctx context.Context, rt Runtime, opts Options, child plan.Node) BatchIterator {
	return prefetchBatches(ctx, opts.Stats, opts.batchSize(), func() ([]datum.Row, error) {
		it, err := BuildBatch(ctx, child, rt, opts)
		if err != nil {
			return nil, err
		}
		return DrainBatchesScratch(it, opts.Scratch)
	})
}

// buildJoin builds a join; overlap is the join's own (see buildBatch).
func buildJoin(ctx context.Context, x *plan.Join, rt Runtime, opts Options, overlap bool) (BatchIterator, error) {
	// The condition is split once, into stack buffers, for both the
	// semi-join planning and the join itself: equi-key pairs lk[i] = rk[i]
	// and the residual predicate (nil when there is none). The residual
	// travels apart from the key slices — bundled with them, its escape
	// into Compile would move the buffers to the heap.
	var leftBuf, rightBuf [4]sqlparse.Expr
	var lk, rk []sqlparse.Expr
	var residual sqlparse.Expr
	if x.Cond != nil {
		if pj := opts.Prepared.join(x); pj != nil {
			lk, rk, residual = pj.lk, pj.rk, pj.residual
		} else {
			lk, rk, residual = plan.AppendEquiKeys(leftBuf[:0], rightBuf[:0], x.Cond, x.Left.Columns(), x.Right.Columns())
		}
		// Semi-join reduction, where the optimizer hinted it: materialize
		// the probe side, ship its distinct join keys into the reducible
		// Remote.
		if it, ok, err := trySemiJoin(ctx, x, rt, opts, lk, rk, residual); err != nil {
			return nil, err
		} else if ok {
			return it, nil
		}
	}

	// Both sides are built before either is pulled. The left side is
	// built first with the right still to come, so under Parallel a Remote
	// in it fetches on its own goroutine while the right side builds —
	// and fetches, on this goroutine, unless the join's own sibling is
	// still to come too. That is all the overlap a join needs.
	left, err := buildBatch(ctx, x.Left, rt, opts, true)
	if err != nil {
		return nil, err
	}
	right, err := buildBatch(ctx, x.Right, rt, opts, overlap)
	if err != nil {
		left.Close()
		return nil, err
	}
	return assembleJoin(ctx, x, left, right, opts, lk, rk, residual)
}

// assembleJoin wires a hash join (when the condition has equi-keys) or a
// nested-loop join over already-built inputs, closing both on error.
func assembleJoin(ctx context.Context, x *plan.Join, left, right BatchIterator, opts Options, lk, rk []sqlparse.Expr, residual sqlparse.Expr) (BatchIterator, error) {
	s := opts.Scratch
	leftJoin := x.Type == sqlparse.JoinLeft
	rightArity := len(x.Right.Columns())
	var cond *Expr
	var err error
	pj := opts.Prepared.join(x)
	if pj != nil {
		cond = pj.cond
	}
	if len(lk) > 0 {
		var leftKeys, rightKeys []Expr
		if pj != nil {
			leftKeys, rightKeys = pj.left, pj.right
		} else if leftKeys, err = compileAll(s, lk, x.Left.Columns()); err == nil {
			if rightKeys, err = compileAll(s, rk, x.Right.Columns()); err == nil && residual != nil {
				cond, err = Compile(s, residual, x.Columns())
			}
		}
		if err == nil {
			degree := opts.workers(x.Parallel)
			return New(s, hashJoinBatchIter{
				ctx:  ctx,
				left: left, right: right,
				leftKeys: leftKeys, rightKeys: rightKeys, residual: cond,
				leftJoin:   leftJoin,
				rightArity: rightArity,
				degree:     degree,
				stats:      opts.Stats,
				scratch:    s,
				keys:       Make[datum.Datum](s, degree*len(lk)),
				blocks:     Make[[]datum.Datum](s, degree),
			}), nil
		}
	} else {
		if x.Cond != nil && pj == nil {
			cond, err = Compile(s, x.Cond, x.Columns())
		}
		if err == nil {
			return New(s, nestedLoopBatchIter{
				left: left, right: right, cond: cond,
				leftJoin: leftJoin, rightArity: rightArity,
				size: opts.batchSize(), scratch: s,
			}), nil
		}
	}
	left.Close()
	right.Close()
	return nil, err
}

// trySemiJoin executes a join the optimizer hinted for semi-join
// reduction: the probe side is materialized, its distinct join keys ship to
// the reducible side's source as an IN-list, and only matching rows come
// back. It returns ok=false (and no error) when the hint does not apply
// after all, in which case the caller runs the regular join. The reduced
// fetch's Remote, Filter and predicate come from the query scratch: the
// source reads them during the fetch, and the ledger and tracer only until
// the query ends.
func trySemiJoin(ctx context.Context, x *plan.Join, rt Runtime, opts Options, lk, rk []sqlparse.Expr, residual sqlparse.Expr) (BatchIterator, bool, error) {
	remote, pairIdx, ok := x.Reduced(lk, rk)
	if !ok {
		return nil, false, nil
	}
	s := opts.Scratch
	reduceRight := x.SemiJoin == plan.SemiJoinReduceRight
	probeNode, reduceNode := x.Left, x.Right
	probeKeys, reduceKeys := lk, rk
	if !reduceRight {
		probeNode, reduceNode = x.Right, x.Left
		probeKeys, reduceKeys = rk, lk
	}
	reduceRef := reduceKeys[pairIdx].(*sqlparse.ColumnRef)

	// Materialize the probe side and collect its distinct key values. It is
	// drained at once, so its fetches run on this goroutine: nothing is
	// built meanwhile that they could overlap.
	probeIt, err := BuildBatch(ctx, probeNode, rt, opts)
	if err != nil {
		return nil, false, err
	}
	probeRows, err := DrainBatchesScratch(probeIt, s)
	if err != nil {
		return nil, false, err
	}
	var keyFn *Expr
	if pj := opts.Prepared.join(x); pj == nil {
		if keyFn, err = Compile(s, probeKeys[pairIdx], probeNode.Columns()); err != nil {
			return nil, false, err
		}
	} else if reduceRight {
		keyFn = &pj.left[pairIdx]
	} else {
		keyFn = &pj.right[pairIdx]
	}
	set, fits, err := distinctKeys(s, probeRows, keyFn)
	if err != nil {
		return nil, false, err
	}
	var fetched BatchIterator
	if !fits {
		// Too many distinct keys even for a bloom filter; run the regular
		// join over the already-materialized probe side, the one input
		// left to fetch.
		if fetched, err = BuildBatch(ctx, reduceNode, rt, opts); err != nil {
			return nil, false, err
		}
	} else {
		var cond sqlparse.Expr
		bloomed := false
		switch {
		case len(set.vals) == 0:
			// No joinable keys on the probe side: nothing can match, so
			// fetch nothing. (SQL IN () is invalid; use a FALSE filter.)
			cond = New(s, sqlparse.Literal{Value: datum.NewBool(false)})
		case len(set.vals) <= opts.maxKeys():
			cond = New(s, sqlparse.InExpr{Child: reduceRef, List: literalList(s, set.vals)})
		default:
			// Past the exact-list cap, summarize the keys into a bloom
			// filter instead of abandoning reduction: ~10 bits/key on the
			// wire, no false negatives, and the handful of false-positive
			// rows that come back are dropped by the join's own key
			// equality check in assembleJoin.
			f := bloom.New(len(set.vals), bloom.DefaultFPRate, bloom.DefaultSeed)
			for _, h := range set.hashes() {
				f.Add(h)
			}
			cond = New(s, sqlparse.KeyFilterExpr{Child: reduceRef, Set: f})
			bloomed = true
		}
		// The fetch feeds the stream its form renders, and records the
		// estimate the optimizer would give its filter.
		stream, planned := x.Reduce.Form(len(set.vals), bloomed)
		reduced := New(s, plan.Remote{Source: remote.Source, Child: New(s, plan.Filter{Input: remote.Child, Cond: cond}), Stream: stream})
		reduced.SetEstRows(planned)
		rows, err := FetchRemote(ctx, rt, opts, reduced)
		if err != nil {
			return nil, false, err
		}
		fetched = newSliceBatchIter(s, rows, opts.batchSize())
	}
	// Wire the probe rows and the fetch back into the join's original
	// left/right orientation.
	var left, right BatchIterator = newSliceBatchIter(s, probeRows, opts.batchSize()), fetched
	if !reduceRight {
		left, right = right, left
	}
	it, err := assembleJoin(ctx, x, left, right, opts, lk, rk, residual)
	return it, err == nil, err
}

// distinctKeys evaluates keyFn over rows and collects the distinct non-NULL
// values in first-seen order. It stops with fits=false as soon as their
// count passes plan.DefaultBloomKeyCap: no shipped tier carries that many.
func distinctKeys(s *Scratch, rows []datum.Row, keyFn *Expr) (keys datumSet, fits bool, err error) {
	capacity := len(rows)
	if capacity > plan.DefaultBloomKeyCap {
		capacity = plan.DefaultBloomKeyCap
	}
	keys = newDatumSet(s, capacity)
	for _, r := range rows {
		v, err := keyFn.Eval(r)
		if err != nil {
			return datumSet{}, false, err
		}
		if v.IsNull() {
			continue
		}
		h := v.Hash()
		if keys.contains(v, h) {
			continue
		}
		if len(keys.vals) == capacity {
			return datumSet{}, false, nil
		}
		keys.add(v, h)
	}
	return keys, true, nil
}

// literalList renders vals as the item list of an IN expression: one
// backing array of literals from s, not one allocation per key.
func literalList(s *Scratch, vals []datum.Datum) []sqlparse.Expr {
	lits, list := Make[sqlparse.Literal](s, len(vals)), Make[sqlparse.Expr](s, len(vals))
	for i, v := range vals {
		lits[i].Value = v
		list[i] = &lits[i]
	}
	return list
}

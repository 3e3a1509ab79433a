// E17 allocation guard: the warm plan-cache-hit path must stay inside a
// fixed allocation budget, or tier-1 fails. This is the regression fence
// behind the arena-backed front end — a change that quietly reintroduces
// per-query heap work (an AST node off the slab path, a closure in the
// fetch loop, a lost scratch buffer) trips it long before a profile would.
// `make alloc-guard` runs the guards in this file and prefetch_test.go's
// goroutine count; `make check` includes it.
//
// Excluded under the race detector: its instrumentation allocates on its
// own behalf, so allocs/op there measures the detector, not the engine.

//go:build !race

package repro

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// The E17 acceptance budget for one warm cached-hit query end to end
// (lex → token-key cache hit → arena bind → scratch execute → result
// copy-out). Measured 13 allocs and 1.5 KB once a hit found its plan by
// the token key, with no normalized key rendered to a string (14 and
// 1.6 KB once a datum.Datum was two words, 1.7 KB
// at 32 bytes a datum, once compiled expressions came from the query
// scratch and feedback signatures rendered into a reused buffer; 36
// and 2.5 KB before; 83 and 7.5 KB before the operator tree — iterators,
// their boundary guards, a semi-join's reduced fetch and the sources'
// fragment runtimes — came from the query scratch). The budget is that
// value plus 5 and ~20% above it: the caps leave room for harness noise,
// not for regressions, and an operator or an expression tree that goes
// back to the heap costs one allocation per query each.
const (
	e17MaxAllocsPerOp = 18
	e17MaxBytesPerOp  = 1850
)

// The same point lookup as a prepared statement under
// core.DefaultQueryOptions, {Parallel, Adaptive}: inter-source overlap,
// the per-operator ledger, feedback absorption. Measured 11 allocs/op and
// 1.44 KB/op once a datum.Datum was two words (1.56 KB at 32 bytes a
// datum, once compiled expressions came from the query scratch and
// feedback signatures rendered into the pooled estimator's buffer; 47 and
// 2.6 KB before; 94 and 7.5 KB before building a plan stopped allocating
// per operator; 105 before predicates split into stack buffers, the
// options fingerprint became a table lookup and an all-reachable
// availability mask the empty string; 114 before the
// plan tree's one traversal protocol stopped allocating input slices and
// column probes stopped building discarded errors; 150 before prefetch
// goroutines were kept to fetches a sibling can overlap and the
// per-execution estimator memoized every node in pooled storage). The
// allocation budget is that value plus 5 and
// the byte budget ~20% above it, so each step that brings the default
// configuration down ratchets fenced numbers: a fresh memo map per query
// trips both, and so does a signature rendered to a fresh string.
// (A goroutine per fetch costs only ~3 allocs; TestPrefetchCounts fences
// that.)
const (
	e17DefaultMaxAllocsPerOp = 16
	e17DefaultMaxBytesPerOp  = 1750
)

func TestE17AllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	cfg := workload.DefaultCRM()
	cfg.Customers = 120
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := fed.Engine
	qo := core.QueryOptions{}
	// Warm the plan cache across every constant rotation so the measured
	// loop is pure cache hits.
	for i := 0; i < 128; i++ {
		if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
			t.Fatal(err)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
				b.Fatal(err)
			}
		}
	})
	if hr := engine.PlanCacheStats().HitRate(); hr < 0.95 {
		t.Fatalf("guard loop is not measuring the cached path: hit rate %.2f", hr)
	}
	if a := res.AllocsPerOp(); a > e17MaxAllocsPerOp {
		t.Errorf("warm cached-hit query allocates %d objects/op, budget is %d (E17)",
			a, int(e17MaxAllocsPerOp))
	}
	if n := res.AllocedBytesPerOp(); n > e17MaxBytesPerOp {
		t.Errorf("warm cached-hit query allocates %d bytes/op, budget is %d (E17)",
			n, int(e17MaxBytesPerOp))
	}
	t.Logf("warm cached-hit: %d allocs/op, %d bytes/op (budget %d / %d)",
		res.AllocsPerOp(), res.AllocedBytesPerOp(), e17MaxAllocsPerOp, e17MaxBytesPerOp)

	ps, err := engine.PrepareOpts(context.Background(), e17PreparedSQL, core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := func(i int) error {
		_, err := ps.ExecuteCtx(context.Background(),
			datum.NewInt(int64(1+i%97)), datum.NewInt(int64(100+50*(i%9))))
		return err
	}
	for i := 0; i < 128; i++ { // feedback store, scratch and ledger pools
		if err := run(i); err != nil {
			t.Fatal(err)
		}
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(i); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a > e17DefaultMaxAllocsPerOp {
		t.Errorf("prepared point query under default options allocates %d objects/op, budget is %d",
			a, e17DefaultMaxAllocsPerOp)
	}
	if n := res.AllocedBytesPerOp(); n > e17DefaultMaxBytesPerOp {
		t.Errorf("prepared point query under default options allocates %d bytes/op, budget is %d",
			n, e17DefaultMaxBytesPerOp)
	}
	t.Logf("prepared, default options: %d allocs/op, %d bytes/op (budget %d / %d)",
		res.AllocsPerOp(), res.AllocedBytesPerOp(), e17DefaultMaxAllocsPerOp, e17DefaultMaxBytesPerOp)
}

// The E17 cold-compile budget: the same point lookup with the plan cache
// bypassed, so every query parses, builds (unfolding the customer360
// view), optimizes and executes. Measured 27 allocs/op and 3.94 KB/op once
// a datum.Datum was two words (4.11 KB at 32 bytes a datum, once the
// compile drew every node, list and expression from the query arena
// and only plan.Retain's compact copy of the finished plan reached the
// heap; 89 and 9.0 KB before, once every optimizer pass copied only what
// it changes, unchanged join and aggregate column lists were shared, and
// compile temporaries (column marks, the join-order table, the planning
// estimator) stayed off the heap; 162 and 16.2 KB before that; 165 and 16.3 KB before that, once compiled
// expressions came from the query scratch and signatures rendered into
// the estimator's buffer; 195 and 17.5 KB before; 242 and 22 KB before the
// executed operator tree came from the query scratch; 283 and 23 KB before
// one estimator served every optimizer pass and the cost, view unfolding
// carved its renaming projection from one block, and predicates split into
// stack buffers; 447 and 27.5 KB before the plan tree's passes copied only
// the nodes they change and views unfolded from the catalog's stored AST
// instead of a re-parse). The budget is that value plus 10 allocations and
// ~10% more bytes: a compile step back on the heap, or a retained copy
// that allocates per node, costs more than the headroom.
const (
	e17ColdMaxAllocsPerOp = 37
	e17ColdMaxBytesPerOp  = 4350
)

// TestColdCompileAllocGuard fences the plan-cache-miss path: parse,
// plan.Build, opt.Optimize and execution of one query, every time.
func TestColdCompileAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	cfg := workload.DefaultCRM()
	cfg.Customers = 120
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := fed.Engine
	qo := core.QueryOptions{NoPlanCache: true}
	for i := 0; i < 16; i++ {
		if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
			t.Fatal(err)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a > e17ColdMaxAllocsPerOp {
		t.Errorf("cold-compiled query allocates %d objects/op, budget is %d (E17 cold-parse)",
			a, e17ColdMaxAllocsPerOp)
	}
	if n := res.AllocedBytesPerOp(); n > e17ColdMaxBytesPerOp {
		t.Errorf("cold-compiled query allocates %d bytes/op, budget is %d (E17 cold-parse)",
			n, e17ColdMaxBytesPerOp)
	}
	t.Logf("cold compile: %d allocs/op, %d bytes/op (budget %d / %d)",
		res.AllocsPerOp(), res.AllocedBytesPerOp(), e17ColdMaxAllocsPerOp, e17ColdMaxBytesPerOp)
}

// TestRetainIsCompact fences plan.Retain, the one heap copy a plan-cache
// miss makes of the plan it compiled in the query arena: the E17 point
// plan's copy takes at most one allocation per node, expression or list
// type the plan holds — a block per type, not a node per allocation.
func TestRetainIsCompact(t *testing.T) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 120
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fed.Engine.Plan(context.Background(), e13BenchSQL(0), core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	exprs := func(es ...sqlparse.Expr) {
		for _, e := range es {
			sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
				types[fmt.Sprintf("%T", x)] = true
				switch x := x.(type) {
				case *sqlparse.InExpr:
					types["[]Expr"] = types["[]Expr"] || len(x.List) > 0
				case *sqlparse.FuncExpr:
					types["[]Expr"] = types["[]Expr"] || len(x.Args) > 0
				case *sqlparse.CaseExpr:
					types["[]CaseWhen"] = true
				}
			})
		}
	}
	plan.Walk(p, func(n plan.Node) {
		types[fmt.Sprintf("%T", n)] = true
		switch x := n.(type) {
		case *plan.Scan:
			types["[]ColMeta"] = types["[]ColMeta"] || len(x.Cols) > 0
		case *plan.Filter:
			exprs(x.Cond)
		case *plan.Project:
			types["[]ColMeta"] = true
			types["[]Expr"] = true
			exprs(x.Exprs...)
		case *plan.Join:
			types["[]ColMeta"] = true
			exprs(x.Cond)
		case *plan.Aggregate:
			types["[]ColMeta"], types["[]AggSpec"] = true, len(x.Aggs) > 0
			types["[]Expr"] = types["[]Expr"] || len(x.GroupBy) > 0
			exprs(x.GroupBy...)
			for _, sp := range x.Aggs {
				exprs(sp.Arg)
			}
		case *plan.Sort:
			types["[]SortKey"] = true
			for _, k := range x.Keys {
				exprs(k.Expr)
			}
		case *plan.Union:
			types["[]Node"] = true
		}
	})
	present := 0
	for _, held := range types {
		if held {
			present++
		}
	}
	if got := testing.AllocsPerRun(100, func() { plan.Retain(nil, p) }); int(got) > present {
		t.Errorf("Retain of the E17 point plan allocates %v times for the %d types it holds, want at most one each", got, present)
	} else {
		t.Logf("Retain of the E17 point plan: %v allocs for %d types", got, present)
	}
	if got, want := plan.Explain(plan.Retain(nil, p)), plan.Explain(p); got != want {
		t.Errorf("retained copy explains as\n%swant\n%s", got, want)
	}
}

// Budgets for the keyed-lookup fence, per query under the default
// configuration, ~25% above the values measured once compiled expressions
// and constant IN-lists came from the query scratch: 28 allocs for the
// IN-list-tier join (72 before; 115 before building a plan stopped
// allocating per operator; 210 when exec's hash join, semi-join key set
// and constant IN-lists moved onto one flat index) and 60–62 for the E14
// report join (79–81 before; 114 before that; 129–132 once its parallel
// probe carved joined rows and output containers from the query scratch,
// and its exchange copied input batches there; 313 before that, a heap
// container per batch, grown from nil). A per-key allocation — a map
// bucket per join key, a literal or a closure per shipped key — costs
// hundreds to thousands on either query, far past the headroom.
//
// The sequential E14 report aggregate measured 13–14 allocs (budget ~25%
// above; 32–33 before its expressions came from the query scratch, 79
// before its operators did, 115 when grouping moved onto the same index),
// against 16 200 with a key row per input row and a state object per
// group.
const (
	keyedSemiJoinMaxAllocsPerOp = 35
	keyedJoinMaxAllocsPerOp     = 78
	keyedAggMaxAllocsPerOp      = 18
)

// TestKeyedLookupAllocGuard fences the queries whose allocations used to
// scale with their key or row counts. Under core.DefaultQueryOptions: an
// E18-shape join whose ~250 probe keys ship as an IN-list, and the E14
// report join that builds a 16 000-row hash table. With one worker and
// every operator at the mediator: the E14 report aggregate over 16 000
// input rows.
func TestKeyedLookupAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	qo := core.DefaultQueryOptions()
	measure := func(engine *core.Engine, sql string, opts core.QueryOptions) int64 {
		for i := 0; i < 8; i++ { // plan cache, feedback store, scratch pool
			if _, err := engine.QueryOptsCtx(context.Background(), sql, opts); err != nil {
				t.Fatal(err)
			}
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.QueryOptsCtx(context.Background(), sql, opts); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocsPerOp()
	}

	const semiJoinSQL = `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' AND c.segment = 'smb' AND i.status = 'overdue'`
	small := mustCRM(t, 3000).Engine
	res, err := small.QueryOptsCtx(context.Background(), semiJoinSQL, qo)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := small.QueryOptsCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers WHERE region = 'west' AND segment = 'smb'`, qo)
	if err != nil {
		t.Fatal(err)
	}
	reduced := false
	plan.Walk(res.Plan, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.SemiJoin != plan.SemiJoinNone {
			reduced = true
		}
	})
	if n := keys.Rows[0][0].Int(); !reduced || n == 0 || n > plan.DefaultSemiJoinKeyCap {
		t.Fatalf("guard query is not an IN-list-tier semi-join: reduced=%v with %d probe keys", reduced, n)
	}
	if a := measure(small, semiJoinSQL, qo); a > keyedSemiJoinMaxAllocsPerOp {
		t.Errorf("IN-list-tier semi-join allocates %d objects/op, budget is %d", a, keyedSemiJoinMaxAllocsPerOp)
	} else {
		t.Logf("IN-list-tier semi-join: %d allocs/op (budget %d)", a, keyedSemiJoinMaxAllocsPerOp)
	}

	report := mustCRM(t, 4000).Engine
	if a := measure(report, e14JoinQuery, qo); a > keyedJoinMaxAllocsPerOp {
		t.Errorf("E14 report join allocates %d objects/op, budget is %d", a, keyedJoinMaxAllocsPerOp)
	} else {
		t.Logf("E14 report join: %d allocs/op (budget %d)", a, keyedJoinMaxAllocsPerOp)
	}

	sequential := core.QueryOptions{Parallelism: 1, Optimizer: opt.Options{NoRemotePushdown: true}}
	if a := measure(report, e14AggQuery, sequential); a > keyedAggMaxAllocsPerOp {
		t.Errorf("sequential E14 report aggregate allocates %d objects/op, budget is %d", a, keyedAggMaxAllocsPerOp)
	} else {
		t.Logf("sequential E14 report aggregate: %d allocs/op (budget %d)", a, keyedAggMaxAllocsPerOp)
	}
}

// parallelMaxBytesPerOp caps the heap bytes one query of each statement
// may allocate at either degree. Neither path copies its input: sources
// hand over zero-copy heap snapshots, partitioned aggregation holds a
// window of rows, and the exchange's batch copies and probe output come
// from the query scratch. What is left is a constant — goroutines,
// exchange channels, one group table per partition — measured at 12 and
// 19 KB for the fan-out and 19 and 24 KB for the aggregate at Parallelism
// 1 and 2 (x86-64). Snapshots that copied the row headers put the two at
// 690 and 500 KB, and aggregation materializing its input cost megabytes.
const parallelMaxBytesPerOp = 64 << 10

// TestParallelAllocGuard runs the E14 fan-out and report aggregate under
// core.DefaultQueryOptions at Parallelism 1 and 2 and fences each run's
// bytes/op. Each side is the best of five rounds of 20 queries: a round in
// which the scratch pool hands out a fresh scratch also pays for growing
// its slabs, up to a megabyte a query, whatever the degree.
func TestParallelAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	engine := mustCRM(t, 4000).Engine
	for _, sql := range []string{workload.FanOutSQL, workload.ReportAggSQL} {
		for _, par := range []int{1, 2} {
			qo := core.DefaultQueryOptions()
			qo.Parallelism = par
			run := func() {
				res, err := engine.QueryOptsCtx(context.Background(), sql, qo)
				if err != nil {
					t.Fatal(err)
				}
				if res.ExecParallelism != par {
					t.Fatalf("Parallelism %d ran at degree %d: the guard would not measure that path", par, res.ExecParallelism)
				}
			}
			for i := 0; i < 8; i++ { // plan cache, feedback store, scratch pool
				run()
			}
			bytes := uint64(math.MaxUint64)
			for round := 0; round < 5; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 20; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/20)
			}
			if bytes > parallelMaxBytesPerOp {
				t.Errorf("%.40q… allocates %d bytes/op at Parallelism %d; budget %d", sql, bytes, par, parallelMaxBytesPerOp)
			} else {
				t.Logf("%.40q…: %d bytes/op at Parallelism %d (budget %d)", sql, bytes, par, parallelMaxBytesPerOp)
			}
		}
	}
}

// One warm point fetch at an indexed table-backed source: no allocation,
// since the fragment's runtime, its batch pipeline and its compiled filter
// all come from the query scratch (3 while the filter compiled to heap
// closures; 8 when the access-path step went in). Choosing and running the
// probe must add none: positions, keys and row headers come from the
// query's scratch. The same fetch by full scan also makes none, since a
// heap snapshot allocates nothing, so this guard cannot tell a bypassed
// probe; TestAccessPathsMatchFullScan's fed-rows check does.
const pointFetchMaxAllocsPerOp = 0

func TestPointFetchAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	src := fetchSource(t, 3000, true)
	frags := make([]plan.Node, 64)
	for i := range frags {
		frags[i] = fetchFragment("id", int64(i*41))
	}
	scratch := exec.GetScratch()
	defer exec.PutScratch(scratch)
	ctx := exec.WithScratch(context.Background(), scratch)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows, err := src.ExecuteCtx(ctx, frags[i%len(frags)]); err != nil || len(rows) != 1 {
				b.Fatalf("fetch returned %d rows, err %v", len(rows), err)
			}
			scratch.Reset()
		}
	})
	if a := res.AllocsPerOp(); a > pointFetchMaxAllocsPerOp {
		t.Errorf("warm point fetch allocates %d objects/op, budget is %d", a, pointFetchMaxAllocsPerOp)
	}
	t.Logf("warm point fetch: %d allocs/op, %d bytes/op (budget %d)", res.AllocsPerOp(), res.AllocedBytesPerOp(), pointFetchMaxAllocsPerOp)
}

// TestCompileAllocGuard fences the expression compiler: the portal query's
// predicates, at the mediator and inside its source fragments, a constant
// IN-list long enough to be indexed, and a literal LIKE pattern, compiled
// into a warm query scratch, allocate nothing. Each tree is one scratch
// block, an IN-list's set, values and index come from the same scratch,
// and a literal pattern's regexp from the LIKE memo; a closure per node, a
// set on the heap, or a pattern compiled per run costs one allocation or
// more each.
func TestCompileAllocGuard(t *testing.T) {
	fed := mustCRM(t, 120)
	p, err := fed.Engine.Plan(context.Background(), workload.PortalSQL(5), core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	type pred struct {
		cond sqlparse.Expr
		cols []plan.ColMeta
	}
	var preds []pred
	plan.Walk(p, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			preds = append(preds, pred{f.Cond, f.Input.Columns()})
		}
	})
	if len(preds) < 2 {
		t.Fatalf("the portal plan has %d filters, want one per source:\n%s", len(preds), plan.Explain(p))
	}
	list := make([]sqlparse.Expr, 8)
	for i := range list {
		list[i] = &sqlparse.Literal{Value: datum.NewInt(int64(3 * i))}
	}
	idCols := []plan.ColMeta{{Table: "c", Name: "id", Kind: datum.KindInt}}
	preds = append(preds, pred{&sqlparse.InExpr{Child: &sqlparse.ColumnRef{Column: "id"}, List: list}, idCols})
	like, err := sqlparse.ParseExpr("s LIKE 'ab%'")
	if err != nil {
		t.Fatal(err)
	}
	preds = append(preds, pred{like, []plan.ColMeta{{Name: "s", Kind: datum.KindString}}})

	scratch := exec.GetScratch()
	defer exec.PutScratch(scratch)
	compileAll := func() {
		for _, pr := range preds {
			if _, err := exec.Compile(scratch, pr.cond, pr.cols); err != nil {
				t.Fatal(err)
			}
		}
		scratch.Reset()
	}
	compileAll() // warm the scratch's blocks
	if a := testing.AllocsPerRun(100, compileAll); a != 0 {
		t.Errorf("compiling %d predicates into a warm scratch allocates %.1f objects, want 0", len(preds), a)
	}
}

// sourceAggSQL groups 16 000 invoices into 4 000 groups at the billing
// source: the result every eager plan of the E14 fan-out ships.
const sourceAggSQL = `SELECT cust_id, COUNT(*), SUM(amount) FROM billing.invoices GROUP BY cust_id`

// Budgets for that aggregate's fragment at the source, per fetch with a
// warm query scratch: no allocation measured once its compiled group keys
// and arguments came from the scratch (x86-64; 7 allocs and 168 B before,
// 24 and 1.7 KB before the fragment's operators came from the scratch), so
// the measured allocs plus 5, and 64 KB.
const (
	sourceAggMaxAllocsPerOp = 5
	sourceAggMaxBytesPerOp  = 64 << 10
)

// TestSourceAggregateAllocGuard fences a grouping whose table is large: its
// index, keys, cells, first-seen rows and finalized rows come from the
// query scratch, sized once from the optimizer's group estimate, so a warm
// fetch allocates nothing per group or per input row. Growing them on the
// heap cost 102 allocs and 3.3 MB a fetch.
func TestSourceAggregateAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	fed := mustCRM(t, 4000)
	p, err := fed.Engine.Plan(context.Background(), sourceAggSQL, core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := p.(*plan.Remote)
	if !ok {
		t.Fatalf("the aggregate does not run at the source:\n%s", plan.Explain(p))
	}
	var groups int
	plan.Walk(r.Child, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			groups = a.Groups
		}
	})
	if groups != 4000 {
		t.Fatalf("fragment carries a group estimate of %d, want 4000:\n%s", groups, plan.Explain(p))
	}
	scratch := exec.GetScratch()
	defer exec.PutScratch(scratch)
	ctx := exec.WithScratch(context.Background(), scratch)
	fetch := func() {
		rows, err := fed.Billing.ExecuteCtx(ctx, r.Child)
		if err != nil || len(rows) != 4000 {
			t.Fatalf("fetch returned %d groups, err %v", len(rows), err)
		}
		scratch.Reset()
	}
	for i := 0; i < 4; i++ { // warm the scratch's blocks
		fetch()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fetch()
		}
	})
	if a := res.AllocsPerOp(); a > sourceAggMaxAllocsPerOp {
		t.Errorf("source aggregate over 4000 groups allocates %d objects/op, budget is %d", a, sourceAggMaxAllocsPerOp)
	}
	if n := res.AllocedBytesPerOp(); n > sourceAggMaxBytesPerOp {
		t.Errorf("source aggregate over 4000 groups allocates %d bytes/op, budget is %d", n, sourceAggMaxBytesPerOp)
	}
	t.Logf("source aggregate, 4000 groups: %d allocs/op, %d bytes/op (budget %d / %d)",
		res.AllocsPerOp(), res.AllocedBytesPerOp(), sourceAggMaxAllocsPerOp, sourceAggMaxBytesPerOp)
}

// Budgets for a warm cross-shard join on a 2-node cluster over 3000
// customers, in bytes per query, ~20% above the highest of five readings
// once a datum.Datum was two words: 69 and 23 KB for the bloom-tier and
// IN-list-tier statements (x86-64; 105 and 33 KB at 32 bytes a datum, once
// a peer's fragment rows landed in the coordinator's query scratch; 200
// and 82 KB when the peer block-copied its rows to the heap). A fragment
// result back on the heap costs that copy again, 57 and 18 KB a query
// (126 and 41 KB measured with it), past the headroom.
//
// And in allocations per query, 5 above the 30 and 25 measured once the
// peer re-optimized every fragment into a pooled arena (40 and 37 before,
// on the heap, once the optimizer's passes copied only what they change;
// 55 and 52 before that): a fragment optimized on the heap again, a
// handful of nodes, shows in the count long before it shows in the bytes.
const (
	peerBloomMaxBytesPerOp   = 82 << 10
	peerInListMaxBytesPerOp  = 28 << 10
	peerBloomMaxAllocsPerOp  = 35
	peerInListMaxAllocsPerOp = 30
)

// TestPeerFragmentAllocGuard fences what a cross-shard query pays to take
// back its peer fragment: the rows come from the coordinator's scratch,
// like a local fetch's, and only the coordinator's public result copy
// reaches the heap; and what the peer pays to re-optimize the fragment.
func TestPeerFragmentAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs a benchmark loop; skipped in -short")
	}
	fed := mustCRM(t, 3000)
	ccfg := cluster.Config{Nodes: 2}
	for o := cluster.Owners(ccfg, "crm", "billing"); o[0] == o[1]; o = cluster.Owners(ccfg, "crm", "billing") {
		ccfg.Seed++
	}
	c, err := cluster.New(ccfg, func(int) (*core.Engine, error) { return fed.NewEngine() })
	if err != nil {
		t.Fatal(err)
	}
	coord := c.Node(c.Owner("crm")).Engine()
	qo := core.DefaultQueryOptions()
	const join = "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "
	for _, tier := range []struct {
		name, probe   string
		bloom         bool
		budget, count int64
	}{
		{"bloom-tier", "c.region = 'west'", true, peerBloomMaxBytesPerOp, peerBloomMaxAllocsPerOp},
		{"IN-list-tier", "c.region = 'west' AND c.segment = 'smb'", false, peerInListMaxBytesPerOp, peerInListMaxAllocsPerOp},
	} {
		keys, err := fed.Engine.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM crm.customers c WHERE "+tier.probe, qo)
		if err != nil {
			t.Fatal(err)
		}
		if n := keys.Rows[0][0].Int(); (n > plan.DefaultSemiJoinKeyCap) != tier.bloom {
			t.Fatalf("%s guard statement probes with %d keys: not that tier", tier.name, n)
		}
		sql := join + tier.probe + " AND i.status = 'overdue' AND i.amount > 10"
		run := func() {
			if _, err := coord.QueryOptsCtx(context.Background(), sql, qo); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ { // plan cache, feedback store, scratch pools
			run()
		}
		c.ResetInterNode()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
		if c.InterNodeTotals().RoundTrips == 0 {
			t.Fatalf("%s statement crossed no inter-node link", tier.name)
		}
		if n := res.AllocedBytesPerOp(); n > tier.budget {
			t.Errorf("warm %s cross-shard join allocates %d bytes/op, budget is %d", tier.name, n, tier.budget)
		}
		if a := res.AllocsPerOp(); a > tier.count {
			t.Errorf("warm %s cross-shard join allocates %d objects/op, budget is %d", tier.name, a, tier.count)
		}
		t.Logf("%s cross-shard join: %d allocs/op, %d bytes/op (budget %d / %d)",
			tier.name, res.AllocsPerOp(), res.AllocedBytesPerOp(), tier.count, tier.budget)
	}
}

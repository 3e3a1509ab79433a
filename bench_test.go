// Package repro's root benchmarks: one bench group per experiment in
// DESIGN.md §4 (run `go test -bench=. -benchmem`), plus micro-benchmarks of
// the engine's hot paths. cmd/eiibench prints the corresponding
// paper-vs-measured tables; these benches measure the same code paths under
// the Go benchmark harness.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/docstore"
	"repro/internal/eai"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/linkage"
	"repro/internal/matview"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/semantics"
	"repro/internal/sqlparse"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

var naiveOpts = core.QueryOptions{Optimizer: opt.Options{
	NoFilterPushdown: true, NoProjectionPrune: true, NoJoinReorder: true, NoRemotePushdown: true,
}}

func mustCRM(b testing.TB, customers int) *workload.CRMFederation {
	b.Helper()
	cfg := workload.DefaultCRM()
	cfg.Customers = customers
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fed
}

func mustEmployees(b *testing.B, n int) *workload.EmployeeFederation {
	b.Helper()
	cfg := workload.DefaultEmployees()
	cfg.Employees = n
	fed, err := workload.BuildEmployees(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fed
}

// --- E1: pushdown vs pull-everything ---

const e1Query = `SELECT c.name, i.amount FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id
	WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 800`

func BenchmarkE1PushdownOptimized(b *testing.B) {
	fed := mustCRM(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryCtx(context.Background(), e1Query); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fed.Engine.NetworkTotals().BytesShipped)/float64(b.N), "bytes/query")
}

func BenchmarkE1PushdownNaive(b *testing.B) {
	fed := mustCRM(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryOptsCtx(context.Background(), e1Query, naiveOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fed.Engine.NetworkTotals().BytesShipped)/float64(b.N), "bytes/query")
}

// --- E2: EII vs warehouse ---

const e2Query = "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region"

func BenchmarkE2EIILiveQuery(b *testing.B) {
	fed := mustCRM(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryCtx(context.Background(), e2Query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2WarehouseRefresh(b *testing.B) {
	fed := mustCRM(b, 300)
	w, err := warehouse.New("dw")
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AddFeed(fed.CRM, "customers"); err != nil {
		b.Fatal(err)
	}
	if err := w.AddFeed(fed.Billing, "invoices"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Refresh(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2WarehouseLocalQuery(b *testing.B) {
	fed := mustCRM(b, 300)
	w, err := warehouse.New("dw")
	if err != nil {
		b.Fatal(err)
	}
	_ = w.AddFeed(fed.CRM, "customers")
	_ = w.AddFeed(fed.Billing, "invoices")
	if _, err := w.Refresh(context.Background()); err != nil {
		b.Fatal(err)
	}
	q := "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM customers c JOIN invoices i ON c.id = i.cust_id GROUP BY region"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: integration cost model ---

func BenchmarkE3SchemaCostSweep(b *testing.B) {
	m := semantics.DefaultCostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 64; n++ {
			_ = m.SchemaCentricMarginal(n, 8)
			_ = m.SchemaLessMarginal(n, 3)
		}
	}
}

// --- E4: materialized vs virtual views ---

func BenchmarkE4MatViewLiveRead(b *testing.B) {
	fed := mustCRM(b, 200)
	mgr := matview.NewManager(fed.Engine)
	if _, err := mgr.Materialize(context.Background(), "dash", e2Query); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Read(context.Background(), "dash", matview.Live); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4MatViewCachedRead(b *testing.B) {
	fed := mustCRM(b, 200)
	mgr := matview.NewManager(fed.Engine)
	if _, err := mgr.Materialize(context.Background(), "dash", e2Query); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Read(context.Background(), "dash", matview.Cached); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4MatViewRefresh(b *testing.B) {
	fed := mustCRM(b, 200)
	mgr := matview.NewManager(fed.Engine)
	if _, err := mgr.Materialize(context.Background(), "dash", e2Query); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Refresh(context.Background(), "dash"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: record linkage ---

func linkageRecords(n int, severity float64) (left, right []linkage.Record) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		clean := workload.CustomerName(i)
		left = append(left, linkage.Record{Key: datum.NewInt(int64(i)), Text: clean})
		right = append(right, linkage.Record{
			Key:  datum.NewInt(int64(10000 + i)),
			Text: workload.DirtyName(clean, severity, rng),
		})
	}
	return left, right
}

func BenchmarkE5LinkageBuild(b *testing.B) {
	left, right := linkageRecords(300, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkage.Build(left, right, linkage.DefaultConfig())
	}
}

func BenchmarkE5LinkageLookup(b *testing.B) {
	left, right := linkageRecords(300, 0.5)
	ix := linkage.Build(left, right, linkage.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RightsFor(datum.NewInt(int64(i % 300)))
	}
}

// --- E6: optimizer-adapted vs fixed plan across access paths ---

const e6Query = "SELECT name, building, model FROM employee360 WHERE dept = 'sales'"

func BenchmarkE6OptimizedAccessPath(b *testing.B) {
	fed := mustEmployees(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryCtx(context.Background(), e6Query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6FixedHandPlan(b *testing.B) {
	fed := mustEmployees(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryOptsCtx(context.Background(), e6Query, naiveOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: fan-out parallelism ---

const e7Query = `SELECT c.region, COUNT(*) AS n FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id
	JOIN support.tickets tk ON tk.cust_id = c.id
	GROUP BY c.region`

func benchE7(b *testing.B, parallel bool) {
	fed := mustCRM(b, 200)
	for _, name := range fed.Engine.Sources() {
		src, _ := fed.Engine.Source(name)
		src.Link().RealSleep = true
		src.Link().MaxSleep = 3e6 // 3ms cap keeps the bench fast
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryOptsCtx(context.Background(), e7Query, core.QueryOptions{Parallel: parallel, NoSemiJoin: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7SequentialFanout(b *testing.B) { benchE7(b, false) }
func BenchmarkE7ParallelFanout(b *testing.B)   { benchE7(b, true) }

// --- E8: enterprise search ---

func searchIndex(b *testing.B, docs int) *search.Index {
	b.Helper()
	store := docstore.New("notes", nil)
	if err := workload.GenerateDocuments(store, docs, 100, 11); err != nil {
		b.Fatal(err)
	}
	ix := search.NewIndex()
	ix.IndexStore(store)
	return ix
}

func BenchmarkE8SearchQuery(b *testing.B) {
	ix := searchIndex(b, 5000)
	q := workload.CustomerName(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 20)
	}
}

func BenchmarkE8IndexDocument(b *testing.B) {
	ix := search.NewIndex()
	doc := docstore.Document{ID: "d", Body: "customer reported an outage in the west region"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.ID = fmt.Sprintf("d%d", i)
		ix.IndexDocument("notes", doc)
	}
}

// --- E9: agility measures ---

func BenchmarkE9AgilitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 256; n *= 2 {
			_ = semantics.AgilityScore(n, semantics.Mediated)
			_ = semantics.AgilityScore(n, semantics.PointToPoint)
		}
	}
}

// --- E10: saga vs naive update ---

func sagaProcess(counter *int) *eai.Process {
	return &eai.Process{Name: "bench", Steps: []eai.Step{
		{Name: "a", Do: func(*eai.Context) error { *counter++; return nil },
			Compensate: func(*eai.Context) error { *counter--; return nil }},
		{Name: "b", Do: func(*eai.Context) error { *counter++; return nil },
			Compensate: func(*eai.Context) error { *counter--; return nil }},
		{Name: "c", Do: func(*eai.Context) error { *counter++; return nil },
			Compensate: func(*eai.Context) error { *counter--; return nil }},
	}}
}

func BenchmarkE10SagaRun(b *testing.B) {
	n := 0
	p := sagaProcess(&n)
	eng := eai.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(p, nil)
	}
}

func BenchmarkE10NaiveRun(b *testing.B) {
	n := 0
	p := sagaProcess(&n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eai.RunNaive(p, nil)
	}
}

// --- E11: advisor ---

func BenchmarkE11Advisor(b *testing.B) {
	scenarios := []matview.Scenario{
		{NeedHistory: true},
		{NeedsLiveData: true},
		{ReadsPerUpdate: 12},
	}
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			_, _ = matview.Advise(s)
		}
	}
}

// --- E12: fault-tolerant federation ---

const e12Query = `SELECT c.name, i.amount FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > 500`

func benchE12(b *testing.B, qo core.QueryOptions, breaker core.BreakerConfig) {
	fed := mustCRM(b, 120)
	fed.Engine.SetBreakerConfig(breaker)
	for i, name := range fed.Engine.Sources() {
		src, _ := fed.Engine.Source(name)
		src.Link().SetFaultProfile(&netsim.FaultProfile{Seed: int64(99 + i), FailureRate: 0.1})
	}
	failed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryOptsCtx(context.Background(), e12Query, qo); err != nil {
			failed++
		}
	}
	b.ReportMetric(float64(failed)/float64(b.N), "failures/op")
}

func BenchmarkE12FaultToleranceNaive(b *testing.B) {
	benchE12(b, core.QueryOptions{Parallel: true},
		core.BreakerConfig{FailureThreshold: -1})
}

func BenchmarkE12FaultToleranceRetry(b *testing.B) {
	benchE12(b, core.QueryOptions{Parallel: true,
		Retry: exec.RetryPolicy{Attempts: 4, BaseBackoff: 2 * time.Millisecond}},
		core.BreakerConfig{FailureThreshold: -1})
}

func BenchmarkE12FaultTolerancePartial(b *testing.B) {
	benchE12(b, core.QueryOptions{Parallel: true, AllowPartial: true,
		Retry: exec.RetryPolicy{Attempts: 4, BaseBackoff: 2 * time.Millisecond}},
		core.BreakerConfig{})
}

// --- E13: plan caching under templated concurrent load ---

// e13BenchSQL mirrors the E13 experiment's templated portal workload: the
// same point-lookup shape through the mediated view with rotating
// constants.
func e13BenchSQL(i int) string {
	return fmt.Sprintf(
		"SELECT name, amount, status FROM customer360 WHERE id = %d AND amount > %d",
		1+i%97, 100+50*(i%9))
}

func benchE13(b *testing.B, clients int, noCache bool) {
	fed := mustCRM(b, 120)
	engine := fed.Engine
	qo := core.QueryOptions{NoPlanCache: noCache}
	var idx int64
	// RunParallel spawns GOMAXPROCS×p goroutines; SetParallelism turns the
	// sub-benchmark into an n-concurrent-client run.
	b.SetParallelism(clients)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&idx, 1)
			if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(int(i)), qo); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if !noCache {
		b.ReportMetric(engine.PlanCacheStats().HitRate()*100, "hit%")
	}
}

func BenchmarkE13PlanCacheCompileEveryTime(b *testing.B) {
	for _, c := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", c), func(b *testing.B) { benchE13(b, c, true) })
	}
}

func BenchmarkE13PlanCacheCached(b *testing.B) {
	for _, c := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", c), func(b *testing.B) { benchE13(b, c, false) })
	}
}

// --- E14: vectorized batches and morsel-driven parallelism ---

const e14JoinQuery = `SELECT c.region, c.name, i.amount FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > 120`

const e14AggQuery = `SELECT region, status, COUNT(*) AS n, SUM(amount) AS total
	FROM customer360 GROUP BY region, status`

const e14FanOutQuery = `SELECT c.region, COUNT(*) AS n, SUM(i.amount) AS total
	FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id
	JOIN support.tickets tk ON tk.cust_id = c.id
	GROUP BY c.region`

// benchE14Batch sweeps the execution batch size with parallelism pinned
// to 1, isolating vectorization: batch=1 is the old row-at-a-time
// Volcano loop, batch=1024 the vectorized default. Pushdown is disabled
// so every operator runs in the mediator's interpreter — the loop the
// batch size governs.
func benchE14Batch(b *testing.B, sql string) {
	fed := mustCRM(b, 4000)
	engine := fed.Engine
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			qo := core.QueryOptions{BatchSize: batch, Parallelism: 1,
				Optimizer: opt.Options{NoRemotePushdown: true}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.QueryOptsCtx(context.Background(), sql, qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE14VectorizedBatchJoin(b *testing.B) { benchE14Batch(b, e14JoinQuery) }

func BenchmarkE14VectorizedBatchAgg(b *testing.B) { benchE14Batch(b, e14AggQuery) }

// BenchmarkE14VectorizedParallelFanOut sweeps the worker cap over the
// E7-style three-source fan-out with really-sleeping links: degree 1 is
// fully sequential, higher degrees overlap fetches and run mediator
// operators on morsels.
func BenchmarkE14VectorizedParallelFanOut(b *testing.B) {
	fed := mustCRM(b, 4000)
	engine := fed.Engine
	for _, name := range engine.Sources() {
		src, _ := engine.Source(name)
		src.Link().RealSleep = true
		src.Link().MaxSleep = 50 * time.Millisecond
	}
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			qo := core.QueryOptions{Parallel: par > 1, Parallelism: par, NoSemiJoin: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.QueryOptsCtx(context.Background(), e14FanOutQuery, qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E17: zero-allocation query front end ---

// e17PreparedSQL is the explicit-placeholder spelling of the E13 portal
// shape, for the prepared-statement path where the client binds values.
const e17PreparedSQL = "SELECT name, amount, status FROM customer360 WHERE id = $1 AND amount > $2"

// BenchmarkE17FrontEnd measures the arena-backed front end on the three
// paths a portal exercises: a cold compile (plan cache off — every op
// runs lex, parse, bind, optimize), a warm cached hit (the steady-state
// path the E17 allocation budget governs; see TestE17AllocGuard), and
// prepared-statement execution (parse amortized away entirely, only
// bind + execute per op).
func BenchmarkE17FrontEnd(b *testing.B) {
	fed := mustCRM(b, 120)
	engine := fed.Engine

	b.Run("cold-parse", func(b *testing.B) {
		qo := core.QueryOptions{NoPlanCache: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached-hit", func(b *testing.B) {
		qo := core.QueryOptions{}
		for i := 0; i < 64; i++ { // warm the template
			if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.QueryOptsCtx(context.Background(), e13BenchSQL(i), qo); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(engine.PlanCacheStats().HitRate()*100, "hit%")
	})

	b.Run("prepared-exec", func(b *testing.B) {
		ps, err := engine.PrepareOpts(context.Background(), e17PreparedSQL, core.DefaultQueryOptions())
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := datum.NewInt(int64(1 + i%97))
			floor := datum.NewInt(int64(100 + 50*(i%9)))
			if _, err := ps.ExecuteCtx(ctx, id, floor); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Source access paths: one fetch at a table-backed source ---

// fetchSource builds a relational source holding t(id, grp, payload) with
// n rows, with the primary key and an index on grp declared or with
// neither. Each grp value owns four rows.
func fetchSource(tb testing.TB, n int, indexed bool) *federation.RelationalSource {
	tb.Helper()
	cols := []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "grp", Kind: datum.KindInt},
		{Name: "payload", Kind: datum.KindString},
	}
	sch := schema.MustTable("t", cols)
	if indexed {
		sch = schema.MustTable("t", cols, 0)
	}
	src := federation.NewRelationalSource("src", federation.FullSQL(), nil)
	tab, err := src.CreateTable(sch)
	if err != nil {
		tb.Fatal(err)
	}
	if indexed {
		if err := tab.CreateIndex("t_grp", []string{"grp"}, false); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		err := tab.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i / 4)), datum.NewString("row")})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return src
}

// fetchFragment is `SELECT * FROM src.t WHERE col IN (keys…)` as the plan
// fragment a mediator would push down; one key renders as `col = key`.
func fetchFragment(col string, keys ...int64) plan.Node {
	scan := &plan.Scan{Source: "src", Table: "t", Alias: "t", Cols: []plan.ColMeta{
		{Table: "t", Name: "id", Kind: datum.KindInt},
		{Table: "t", Name: "grp", Kind: datum.KindInt},
		{Table: "t", Name: "payload", Kind: datum.KindString},
	}}
	ref := &sqlparse.ColumnRef{Table: "t", Column: col}
	if len(keys) == 1 {
		return &plan.Filter{Input: scan, Cond: &sqlparse.BinaryExpr{Op: sqlparse.OpEq,
			Left: ref, Right: &sqlparse.Literal{Value: datum.NewInt(keys[0])}}}
	}
	in := &sqlparse.InExpr{Child: ref}
	for _, k := range keys {
		in.List = append(in.List, &sqlparse.Literal{Value: datum.NewInt(k)})
	}
	return &plan.Filter{Input: scan, Cond: in}
}

// BenchmarkPointFetch runs one selective fetch against a 100 000-row table,
// far past the benchmark fixtures' 120 to 12 000 rows, with and without the
// index its predicate names: `scan` costs the table, `probe` the matches.
func BenchmarkPointFetch(b *testing.B) {
	const rows = 100_000
	inKeys := make([]int64, 250)
	for i := range inKeys {
		inKeys[i] = int64(i * 97 % (rows / 4))
	}
	shapes := []struct {
		name string
		frag func(i int) plan.Node
		want int
	}{
		{"pk", func(i int) plan.Node { return fetchFragment("id", int64(i*7919%rows)) }, 1},
		{"in250", func(int) plan.Node { return fetchFragment("grp", inKeys...) }, 1000},
	}
	for _, path := range []string{"scan", "probe"} {
		src := fetchSource(b, rows, path == "probe")
		for _, shape := range shapes {
			frags := make([]plan.Node, 64)
			for i := range frags {
				frags[i] = shape.frag(i)
			}
			b.Run(shape.name+"/"+path, func(b *testing.B) {
				scratch := exec.GetScratch()
				defer exec.PutScratch(scratch)
				ctx := exec.WithScratch(context.Background(), scratch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := src.ExecuteCtx(ctx, frags[i%len(frags)])
					if err != nil || len(got) != shape.want {
						b.Fatalf("fetch returned %d rows, err %v; want %d", len(got), err, shape.want)
					}
					scratch.Reset()
				}
			})
		}
	}
}

// --- Engine micro-benchmarks ---

func BenchmarkMicroParse(b *testing.B) {
	const q = `SELECT c.name, SUM(i.amount) AS total FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' GROUP BY c.name HAVING SUM(i.amount) > 100
		ORDER BY total DESC LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroPlanAndOptimize(b *testing.B) {
	fed := mustCRM(b, 100)
	const q = `SELECT c.name, SUM(i.amount) AS total FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' GROUP BY c.name ORDER BY total DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.Plan(context.Background(), q, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroHashJoinExec(b *testing.B) {
	fed := mustCRM(b, 1000)
	const q = `SELECT COUNT(*) FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroAggregate(b *testing.B) {
	fed := mustCRM(b, 1000)
	const q = `SELECT region, segment, COUNT(*), SUM(id) FROM crm.customers GROUP BY region, segment`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks: each optimization disabled in isolation ---

func benchAblation(b *testing.B, o opt.Options) {
	fed := mustCRM(b, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Engine.QueryOptsCtx(context.Background(), e1Query, core.QueryOptions{Optimizer: o}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fed.Engine.NetworkTotals().BytesShipped)/float64(b.N), "bytes/query")
}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b, opt.Options{}) }
func BenchmarkAblationNoFilterPush(b *testing.B) {
	benchAblation(b, opt.Options{NoFilterPushdown: true})
}
func BenchmarkAblationNoProjPrune(b *testing.B) {
	benchAblation(b, opt.Options{NoProjectionPrune: true})
}
func BenchmarkAblationNoJoinReorder(b *testing.B) { benchAblation(b, opt.Options{NoJoinReorder: true}) }
func BenchmarkAblationNoRemotePush(b *testing.B) {
	benchAblation(b, opt.Options{NoRemotePushdown: true})
}
func BenchmarkAblationNoSemiJoin(b *testing.B) { benchAblation(b, opt.Options{NoSemiJoin: true}) }

// TestExperimentTablesQuick keeps the root harness wired to the same
// experiment runner cmd/eiibench uses.
func TestExperimentTablesQuick(t *testing.T) {
	tables, err := experiments.All(context.Background(), experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 17 {
		t.Fatalf("expected 17 experiments, got %d", len(tables))
	}
}

// --- E15: per-query context: cancel-to-quiesce latency ---

// e15Federation is the CRM federation over really-sleeping links, so a
// cancellation lands while remote fetches genuinely block.
func e15Federation(b *testing.B) *core.Engine {
	fed := mustCRM(b, 4000)
	for _, name := range fed.Engine.Sources() {
		src, _ := fed.Engine.Source(name)
		src.Link().RealSleep = true
		src.Link().MaxSleep = 50 * time.Millisecond
	}
	return fed.Engine
}

// benchE15Cancel starts a query, cancels it after startDelay, and
// measures cancel-to-quiesce: the time from cancel() until the query
// returns and the goroutine count is back at baseline. The reported
// metrics are what E15 tracks — quiesce latency and residual goroutines.
func benchE15Cancel(b *testing.B, engine *core.Engine, qo core.QueryOptions, startDelay time.Duration) {
	base := runtime.NumGoroutine()
	var quiesceTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			_, _ = engine.QueryOptsCtx(ctx, e14FanOutQuery, qo)
			close(done)
		}()
		time.Sleep(startDelay) // let fetches and workers get in flight
		start := time.Now()
		cancel()
		<-done
		for runtime.NumGoroutine() > base && time.Since(start) < 5*time.Second {
			time.Sleep(50 * time.Microsecond)
		}
		quiesceTotal += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(quiesceTotal.Nanoseconds())/float64(b.N), "quiesce-ns/op")
	b.ReportMetric(float64(runtime.NumGoroutine()-base), "leaked-goroutines")
}

// BenchmarkE15CancelMidFetch cancels while the three-source fan-out is
// blocked inside netsim transfers.
func BenchmarkE15CancelMidFetch(b *testing.B) {
	benchE15Cancel(b, e15Federation(b),
		core.QueryOptions{Parallel: true, NoSemiJoin: true}, 2*time.Millisecond)
}

// BenchmarkE15CancelMidBackoff cancels while retries are sleeping out
// wall-clock backoff windows against flaky links — before E15, the sleep
// ran out its full capped window before noticing the cancel.
func BenchmarkE15CancelMidBackoff(b *testing.B) {
	engine := e15Federation(b)
	for i, name := range engine.Sources() {
		src, _ := engine.Source(name)
		src.Link().SetFaultProfile(&netsim.FaultProfile{Seed: int64(5 + i), FailureRate: 0.5})
	}
	qo := core.QueryOptions{Parallel: true, NoSemiJoin: true,
		Retry: exec.RetryPolicy{
			Attempts: 5, BaseBackoff: 20 * time.Millisecond,
			CapBackoff: 100 * time.Millisecond, SleepBackoff: true,
		}}
	benchE15Cancel(b, engine, qo, 4*time.Millisecond)
}

// BenchmarkE15TraceOverhead measures the span tree's cost on the E14
// aggregation query: the tracing path must stay cheap enough to leave on
// for portal traffic.
func BenchmarkE15TraceOverhead(b *testing.B) {
	fed := mustCRM(b, 4000)
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%v", traced), func(b *testing.B) {
			qo := core.QueryOptions{Parallel: true, Trace: traced}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fed.Engine.QueryOptsCtx(context.Background(), e14AggQuery, qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E16: admission control under open-loop overload ---

// e16Engine is the small CRM federation over blocking links with the
// gold/bronze tenant quotas the E16 experiment uses.
func e16Engine(b *testing.B) *core.Engine {
	b.Helper()
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	cfg.InvoicesPerCustomer = 2
	cfg.TicketsPerCustomer = 1
	cfg.LinkLatency = time.Millisecond
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range fed.Engine.Sources() {
		src, _ := fed.Engine.Source(name)
		src.Link().RealSleep = true
		src.Link().MaxSleep = 10 * time.Millisecond
	}
	fed.Engine.EnableAdmission(core.AdmissionConfig{RetryAfter: 20 * time.Millisecond})
	for _, tc := range []core.TenantConfig{
		{Name: "gold", Priority: 3, MaxConcurrent: 4, MaxQueueDepth: 8},
		{Name: "bronze", Priority: 1, MaxConcurrent: 2, MaxQueueDepth: 4},
	} {
		if err := fed.Engine.DefineTenant(tc); err != nil {
			b.Fatal(err)
		}
	}
	return fed.Engine
}

// BenchmarkE16OpenLoop drives the gold/bronze admission federation with
// an open-loop Poisson mix at roughly 2x its saturation rate for a fixed
// window per iteration. The reported metrics are what E16 claims:
// bounded tail latency, fast structured shedding of the excess, bounded
// queue depth, and zero goroutine growth after drain.
func BenchmarkE16OpenLoop(b *testing.B) {
	engine := e16Engine(b)
	const sql = "SELECT id, name, amount FROM customer360 WHERE id < 40"
	qo := core.QueryOptions{Parallel: true}
	// Pin the offered load to a measured 2x saturation of the 6-slot
	// quota capacity.
	warm := 8
	start := time.Now()
	for i := 0; i < warm; i++ {
		if _, err := engine.QueryOptsCtx(context.Background(), sql, qo); err != nil {
			b.Fatal(err)
		}
	}
	service := time.Since(start) / time.Duration(warm)
	rate := 2 * 6 * float64(time.Second) / float64(service)

	var issued, shed, failed int
	var p999, maxQ, growth float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := workload.RunOpenLoop(context.Background(), engine, workload.OpenLoopConfig{
			Duration:       150 * time.Millisecond,
			Seed:           int64(416 + i),
			MaxOutstanding: 512,
			Loads: []workload.TenantLoad{
				{Tenant: "gold", Rate: rate * 0.6, SQL: sql, Options: qo},
				{Tenant: "bronze", Rate: rate * 0.4, SQL: sql, Options: qo},
			},
		})
		issued += rep.Issued
		shed += rep.Shed
		failed += rep.Failed
		if v := float64(rep.P999.Nanoseconds()); v > p999 {
			p999 = v
		}
		if v := float64(rep.MaxQueueDepth); v > maxQ {
			maxQ = v
		}
		if v := float64(rep.GoroutineGrowth); v > growth {
			growth = v
		}
	}
	b.StopTimer()
	if failed > 0 {
		b.Fatalf("%d queries failed with non-overload errors", failed)
	}
	b.ReportMetric(p999, "p999-ns")
	b.ReportMetric(100*float64(shed)/float64(issued), "shed%")
	b.ReportMetric(maxQ, "max-queue")
	b.ReportMetric(growth, "leaked-goroutines")
}

// --- E18: sharded mediator cluster ---

// e18Cluster builds a two-node cluster over one CRM fleet with crm and
// billing on different shards, so the benchmark join crosses nodes.
func e18Cluster(b *testing.B, customers int) (*cluster.Cluster, *core.Engine) {
	b.Helper()
	fed := mustCRM(b, customers)
	var seed uint64
	for ; seed < 256; seed++ {
		o := cluster.Owners(cluster.Config{Nodes: 2, Seed: seed}, "crm", "billing")
		if o[0] != o[1] {
			break
		}
	}
	c, err := cluster.New(cluster.Config{Nodes: 2, Seed: seed}, func(int) (*core.Engine, error) {
		return fed.NewEngine()
	})
	if err != nil {
		b.Fatal(err)
	}
	return c, c.Node(c.Owner("crm")).Engine()
}

const e18Query = `SELECT c.name, i.amount FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id
	WHERE c.region = 'west' AND i.status = 'overdue'`

// BenchmarkE18ClusterScatterGather measures the whole cross-shard path —
// compile at the coordinator, ship the billing fragment to its owner,
// gather the reduced rows — at a probe size where the exact key list
// still fits the IN-list cap.
func BenchmarkE18ClusterScatterGather(b *testing.B) {
	c, coord := e18Cluster(b, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.QueryOptsCtx(context.Background(), e18Query, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.InterNodeTotals().WireBytes)/float64(b.N), "inter-B/op")
}

// benchE18Ship runs the cross-shard join at a probe size past the
// IN-list cap under one shipping mode and reports inter-node bytes.
func benchE18Ship(b *testing.B, qo core.QueryOptions) {
	c, coord := e18Cluster(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.QueryOptsCtx(context.Background(), e18Query, qo); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.InterNodeTotals().WireBytes)/float64(b.N), "inter-B/op")
}

// BenchmarkE18ClusterBloomShip ships a bloom filter of the probe keys to
// the billing shard (the default past plan.DefaultSemiJoinKeyCap).
func BenchmarkE18ClusterBloomShip(b *testing.B) {
	benchE18Ship(b, core.QueryOptions{})
}

// BenchmarkE18ClusterFullShip ships the whole billing relation — the
// pre-cluster baseline the bloom path is measured against.
func BenchmarkE18ClusterFullShip(b *testing.B) {
	benchE18Ship(b, core.QueryOptions{NoSemiJoin: true})
}

// BenchmarkE19Lint measures the interprocedural analysis engine itself:
// packages re-analyzed per second over the whole repository — facts,
// call-graph propagation, and all eleven checks — with the export-data
// load hoisted out of the timer. The per-iteration work is what `make
// lint` pays after the build cache is warm.
func BenchmarkE19Lint(b *testing.B) {
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := analysis.RunParallel(pkgs, analysis.All(), workers); len(diags) != 0 {
			b.Fatalf("lint found %d findings on the benchmark tree", len(diags))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pkgs))*float64(b.N)/b.Elapsed().Seconds(), "pkgs/sec")
}

// e20Fed builds the E20 stale-statistics federation: users carries
// accurate stats, events published stats at 50 rows and then grew to
// eventRows without a refresh (freshStats republishes instead, for the
// overhead benchmark where the catalog tells the truth).
func e20Fed(b *testing.B, eventRows int, freshStats bool) *core.Engine {
	b.Helper()
	e := core.New()
	crm := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 1e6, 1))
	users, err := crm.CreateTable(schema.MustTable("users", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "tier", Kind: datum.KindString},
	}, 0))
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		if err := users.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("user-%04d", i)),
			datum.NewString(fmt.Sprintf("t%d", i%50)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	crm.RefreshStats()

	logs := federation.NewRelationalSource("logs", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 1e6, 1))
	events, err := logs.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "user_id", Kind: datum.KindInt},
		{Name: "action", Kind: datum.KindString},
	}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < eventRows; i++ {
		if i == 50 {
			logs.RefreshStats() // stats freeze at 50 rows
		}
		if err := events.Insert(datum.Row{
			datum.NewInt(int64(i%5000) + 1),
			datum.NewString(fmt.Sprintf("action-%05d-payload-payload-payload", i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if freshStats {
		logs.RefreshStats()
	}
	for _, s := range []federation.Source{crm, logs} {
		if err := e.Register(s); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

const e20BenchQuery = `SELECT u.name, e.action FROM crm.users u
	JOIN logs.events e ON u.id = e.user_id
	WHERE u.tier = 't7' ORDER BY u.name, e.action`

// benchE20 runs the stale-stats join b.N times under qo, after one
// untimed warm-up query (which, under Adaptive, trips the mid-query
// replan and seeds the feedback store), and reports shipped bytes/op.
func benchE20(b *testing.B, e *core.Engine, qo core.QueryOptions) {
	if _, err := e.QueryOptsCtx(context.Background(), e20BenchQuery, qo); err != nil {
		b.Fatal(err)
	}
	e.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryOptsCtx(context.Background(), e20BenchQuery, qo); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.NetworkTotals().BytesShipped)/float64(b.N), "ship-B/op")
}

// BenchmarkE20AdaptiveWarm measures the steady state after the feedback
// loop has corrected the stale estimate: every plan compiles straight to
// the semi-join reduction, plus the per-query cost of the cardinality
// ledger and feedback absorption.
func BenchmarkE20AdaptiveWarm(b *testing.B) {
	benchE20(b, e20Fed(b, 4000, false), core.QueryOptions{Parallel: true, Adaptive: true})
}

// BenchmarkE20AdaptiveStaticBaseline is the same workload planned purely
// from the (stale) catalog: the optimizer keeps shipping the whole
// mis-estimated relation on every query.
func BenchmarkE20AdaptiveStaticBaseline(b *testing.B) {
	benchE20(b, e20Fed(b, 4000, false), core.QueryOptions{Parallel: true})
}

// BenchmarkE20AdaptiveLedgerOverhead runs Adaptive over a truthful
// catalog — the tripwire never fires and feedback agrees with the stats —
// so the delta against a static run of the same fixture is the pure
// bookkeeping cost of the always-on cardinality ledger.
func BenchmarkE20AdaptiveLedgerOverhead(b *testing.B) {
	benchE20(b, e20Fed(b, 4000, true), core.QueryOptions{Parallel: true, Adaptive: true})
}

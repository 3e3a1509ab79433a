// Package repro's root benchmarks are the mechanism microbenchmarks no
// other surface reports (run `go test -bench=. -benchmem`): E14's batch and
// parallelism sweeps, E15's cancel-to-quiesce latency, E17's front end,
// E20's ledger overhead and the source-side point fetch, beside the
// allocation guards that share their fixtures (alloc_guard_test.go). A
// paper claim's own numbers — shipped bytes, simulated time — come from the
// experiment tables (internal/experiments, cmd/eiibench); wall-clock
// numbers worth keeping come from the repo benchmark (bench/).
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func mustCRM(b testing.TB, customers int) *workload.CRMFederation {
	b.Helper()
	fed, err := workload.CRMOf(customers)
	if err != nil {
		b.Fatal(err)
	}
	return fed
}

// The shared statements under the names alloc_guard_test.go knows them by.
var e13BenchSQL = workload.PortalSQL

const (
	e14JoinQuery = workload.ReportJoinSQL
	e14AggQuery  = workload.ReportAggSQL
)

// --- E14: vectorized batches and morsel-driven parallelism ---

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
	fed.BlockLinks(50 * time.Millisecond)
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			qo := core.QueryOptions{Parallel: par > 1, Parallelism: par, NoSemiJoin: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.QueryOptsCtx(context.Background(), workload.FanOutSQL, qo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E15: per-query context: cancel-to-quiesce latency ---

// e15Federation is the CRM federation over really-sleeping links, so a
// cancellation lands while remote fetches genuinely block.
func e15Federation(b *testing.B) *core.Engine {
	fed := mustCRM(b, 4000)
	fed.BlockLinks(50 * time.Millisecond)
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
			_, _ = engine.QueryOptsCtx(ctx, workload.FanOutSQL, qo)
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

// --- E17: zero-allocation query front end ---

// e17PreparedSQL is the explicit-placeholder spelling of the portal
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

// --- E20: the always-on cardinality ledger ---

// BenchmarkE20AdaptiveLedgerOverhead runs Adaptive over the E20 federation
// with a truthful catalog — the tripwire never fires and feedback agrees
// with the stats — so the delta against a static run of the same fixture
// is the pure bookkeeping cost of the always-on cardinality ledger. (What
// adaptivity buys when the catalog lies is RunE20's table.)
func BenchmarkE20AdaptiveLedgerOverhead(b *testing.B) {
	e, err := workload.BuildStaleStats(4000, true)
	if err != nil {
		b.Fatal(err)
	}
	qo := core.QueryOptions{Parallel: true, Adaptive: true}
	// One untimed query seeds the feedback store.
	if _, err := e.QueryOptsCtx(context.Background(), workload.StaleStatsSQL, qo); err != nil {
		b.Fatal(err)
	}
	e.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryOptsCtx(context.Background(), workload.StaleStatsSQL, qo); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.NetworkTotals().BytesShipped)/float64(b.N), "ship-B/op")
}

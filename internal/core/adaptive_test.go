package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/feedback"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
)

// staleStatsFixture builds the adversarial adaptive-query federation: a
// users table with accurate statistics and an events table whose published
// statistics are wildly stale — they were computed over the first 50 rows,
// after which the table grew 80x without a stats refresh. The static
// optimizer therefore sees no point in semi-join reduction (the "whole
// table" looks smaller than the probe's key set) and ships the full table;
// runtime feedback corrects this after one observation.
func staleStatsFixture(t *testing.T, eventRows int) *Engine {
	t.Helper()
	e := New()

	crm := federation.NewRelationalSource("crm", federation.FullSQL(), netsim.NewLink(2e6, 1e6, 1))
	users, err := crm.CreateTable(schema.MustTable("users", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "tier", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		if err := users.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("user-%04d", i)),
			datum.NewString(fmt.Sprintf("t%d", i%50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	crm.RefreshStats() // accurate: 5000 rows, 50 distinct tiers

	logs := federation.NewRelationalSource("logs", federation.FullSQL(), netsim.NewLink(2e6, 1e6, 1))
	events, err := logs.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "user_id", Kind: datum.KindInt},
		{Name: "action", Kind: datum.KindString},
	}))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(i int, userID int64) {
		t.Helper()
		if err := events.Insert(datum.Row{
			datum.NewInt(userID),
			datum.NewString(fmt.Sprintf("action-%05d-payload-payload-payload", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		insert(i, int64(i+1))
	}
	logs.RefreshStats() // stale from here on: claims 50 rows, 50 distinct user_ids
	for i := 50; i < eventRows; i++ {
		insert(i, int64(i%5000)+1)
	}

	for _, s := range []federation.Source{crm, logs} {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

const staleStatsQuery = `SELECT u.name, e.action FROM crm.users u
	JOIN logs.events e ON u.id = e.user_id
	WHERE u.tier = 't7' ORDER BY u.name, e.action`

func TestAdaptiveReplanFiresAndMatchesStatic(t *testing.T) {
	const queries = 4
	run := func(adaptive bool) (rows [][]datum.Row, bytes int64, replans int) {
		e := staleStatsFixture(t, 4000)
		e.ResetMetrics()
		qo := QueryOptions{Parallel: true, Adaptive: adaptive}
		for i := 0; i < queries; i++ {
			res, err := e.QueryOptsCtx(context.Background(), staleStatsQuery, qo)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, res.Rows)
			replans += res.ReplanCount
		}
		return rows, e.NetworkTotals().BytesShipped, replans
	}

	staticRows, staticBytes, staticReplans := run(false)
	adaptiveRows, adaptiveBytes, adaptiveReplans := run(true)

	if staticReplans != 0 {
		t.Errorf("static run replanned %d times", staticReplans)
	}
	if adaptiveReplans < 1 {
		t.Errorf("adaptive run never replanned (stale stats must trip the cardinality tripwire)")
	}
	// Byte-identical results, query by query.
	for q := range staticRows {
		if len(staticRows[q]) != len(adaptiveRows[q]) {
			t.Fatalf("query %d: static %d rows, adaptive %d rows", q, len(staticRows[q]), len(adaptiveRows[q]))
		}
		for i := range staticRows[q] {
			for c := range staticRows[q][i] {
				if datum.Compare(staticRows[q][i][c], adaptiveRows[q][i][c]) != 0 {
					t.Fatalf("query %d row %d col %d: static %v, adaptive %v",
						q, i, c, staticRows[q][i][c], adaptiveRows[q][i][c])
				}
			}
		}
	}
	// The adaptive run pays one full fetch plus the replanned reduced
	// fetch on query 1, then semi-join-reduced fetches after; the static
	// run ships the whole stale-stats table every time.
	if staticBytes < 2*adaptiveBytes {
		t.Errorf("adaptive shipped %d bytes, static %d — expected static >= 2x", adaptiveBytes, staticBytes)
	}
}

// TestAdaptiveOffReproducesStaticPlans pins the gate: with Adaptive off,
// planning must ignore the feedback store entirely, even after adaptive
// traffic has filled it — a fresh engine with no feedback produces the
// same plan text.
func TestAdaptiveOffReproducesStaticPlans(t *testing.T) {
	warmed := staleStatsFixture(t, 4000)
	for i := 0; i < 2; i++ {
		if _, err := warmed.QueryOptsCtx(context.Background(), staleStatsQuery, QueryOptions{Parallel: true, Adaptive: true}); err != nil {
			t.Fatal(err)
		}
	}
	if warmed.Feedback().Len() == 0 {
		t.Fatal("adaptive queries recorded no feedback")
	}

	fresh := staleStatsFixture(t, 4000)
	pWarm, err := warmed.Plan(context.Background(), staleStatsQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pFresh, err := fresh.Plan(context.Background(), staleStatsQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Explain(pWarm), plan.Explain(pFresh); got != want {
		t.Errorf("static plan drifted after feedback:\n--- with feedback ---\n%s--- fresh ---\n%s", got, want)
	}

	// Sanity: the adaptive plan on the warmed engine DOES differ — the
	// static-identity check above would be vacuous otherwise.
	pAdaptive, err := warmed.Plan(context.Background(), staleStatsQuery, QueryOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Explain(pAdaptive) == plan.Explain(pFresh) {
		t.Errorf("adaptive plan ignored feedback (expected semi-join after observed blowup):\n%s", plan.Explain(pAdaptive))
	}
}

// TestAdaptiveFeedbackIgnoresFailedAttempts is the retry-accounting
// regression test: under injected transfer failures with retry enabled,
// only the successful attempt's rows may land in the feedback store, while
// the failed attempts stay visible as numbered trace spans.
func TestAdaptiveFeedbackIgnoresFailedAttempts(t *testing.T) {
	e := New()
	src := federation.NewRelationalSource("s", federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	src.RefreshStats()
	if err := e.Register(src); err != nil {
		t.Fatal(err)
	}
	src.Link().SetFaultProfile(&netsim.FaultProfile{FailFirst: 2})

	res, err := e.QueryOptsCtx(context.Background(), "SELECT id FROM s.t", QueryOptions{
		Parallel: true, Adaptive: true, Trace: true,
		Retry: exec.RetryPolicy{Attempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 700 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Retries["s"] != 2 {
		t.Errorf("retries = %v, want 2 for s", res.Retries)
	}
	if res.Trace == nil || !strings.Contains(res.Trace.Render(), "(attempt 3)") {
		t.Error("failed attempts must stay visible as numbered trace spans")
	}

	est, ok := e.Feedback().Lookup(feedback.Shape{Source: "s", Table: "t"})
	if !ok {
		t.Fatal("no feedback recorded for s.t")
	}
	if est.Observations != 1 {
		t.Errorf("observations = %d, want 1 (failed attempts must not contribute)", est.Observations)
	}
	if est.Rows < 650 || est.Rows > 750 {
		t.Errorf("observed rows = %.0f, want ~700 (the successful attempt's count)", est.Rows)
	}
}

// TestExplainReportsEstimatedVsObserved covers the post-execution explain
// surface: per-operator estimated and actual row counts.
func TestExplainReportsEstimatedVsObserved(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	res, err := e.QueryOptsCtx(context.Background(), staleStatsQuery, QueryOptions{Parallel: true, Adaptive: true, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	out := res.ExplainOutput
	if out == "" {
		t.Fatal("no explain output")
	}
	if !strings.Contains(out, "est=") || !strings.Contains(out, "actual=") {
		t.Errorf("explain output missing est/actual annotations:\n%s", out)
	}
	if res.ReplanCount > 0 && !strings.Contains(out, "re-planned") {
		t.Errorf("explain output must note the mid-query replan:\n%s", out)
	}
	if res.EstimateErrors == 0 {
		t.Error("stale-stats query reported no estimate errors")
	}

	// Explain works without Adaptive too (ledger only, no replanning).
	res2, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM crm.users", QueryOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.ExplainOutput, "actual=") {
		t.Errorf("non-adaptive explain missing observed counts:\n%s", res2.ExplainOutput)
	}
	if res2.ReplanCount != 0 {
		t.Errorf("non-adaptive query replanned %d times", res2.ReplanCount)
	}
}

// TestPlanCacheDriftInvalidation covers satellite 3: cached adaptive plans
// survive small feedback drift but are invalidated once the store's
// generation bumps, with the churn visible in the drift counter.
func TestPlanCacheDriftInvalidation(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	qo := QueryOptions{Parallel: true, Adaptive: true}
	const q = "SELECT name FROM crm.users WHERE tier = 't3' ORDER BY name"

	if _, err := e.QueryOptsCtx(context.Background(), q, qo); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryOptsCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("second identical query must hit the plan cache")
	}

	// Small drift: an observation close to its prediction must not bump
	// the generation or evict the plan.
	e.Feedback().Observe(feedback.Key{Source: "x", Table: "y"}, 100, 98)
	res, err = e.QueryOptsCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("small feedback drift must not invalidate cached plans")
	}
	if n := e.PlanCacheStats().DriftInvalidations; n != 0 {
		t.Errorf("driftInvalidations = %d after small drift", n)
	}

	// Large drift: a wildly mispredicted observation bumps the generation;
	// the next adaptive lookup must recompile.
	e.Feedback().Observe(feedback.Key{Source: "x", Table: "z"}, 100000, 10)
	res, err = e.QueryOptsCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("generation bump must invalidate the cached adaptive plan")
	}
	if n := e.PlanCacheStats().DriftInvalidations; n < 1 {
		t.Errorf("driftInvalidations = %d, want >= 1", n)
	}

	// Static plans are immune: prime one, bump again, still a hit.
	static := QueryOptions{Parallel: true}
	if _, err := e.QueryOptsCtx(context.Background(), q, static); err != nil {
		t.Fatal(err)
	}
	e.Feedback().Observe(feedback.Key{Source: "x", Table: "w"}, 100000, 10)
	res, err = e.QueryOptsCtx(context.Background(), q, static)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("feedback drift must not touch non-adaptive cache entries")
	}
}

// TestE20AdaptiveReplanStorm races concurrent adaptive queries — feedback
// writes, mid-query replans, drift invalidations — and asserts every
// worker goroutine drains. This is the -race stress target of
// `make race-adaptive`.
func TestE20AdaptiveReplanStorm(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	base := runtime.NumGoroutine()

	const workers = 8
	queries := []string{
		staleStatsQuery,
		"SELECT COUNT(*) FROM logs.events",
		"SELECT name FROM crm.users WHERE tier = 't11' ORDER BY name",
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qo := QueryOptions{Parallel: true, Adaptive: true, Explain: w%2 == 0}
			for i := 0; i < 6; i++ {
				if _, err := e.QueryOptsCtx(context.Background(), queries[(w+i)%len(queries)], qo); err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitGoroutineBaseline(t, base)
}

// TestE20ReplansBesideWarmHits: plan-cache hits and E20 re-plans run at
// once over one cached template, and no pass writes into it. Each round
// caches the stale-stats query's static template; half the workers run it
// as warm hits, the other half bind it, as a caller of ExecuteCtx must,
// and hand the bound plan, which shares every subtree without a parameter with the template,
// to ExecuteCtx adaptively, where it trips the cardinality tripwire and
// re-plans — the last optimizer pass and Reoptimize both copy what they
// annotate. Every node of the template must read as it did before the
// round, and the race detector must see no write beside the readers.
func TestE20ReplansBesideWarmHits(t *testing.T) {
	ctx := context.Background()
	static := QueryOptions{Parallel: true}
	adaptive := QueryOptions{Parallel: true, Adaptive: true, Explain: true}
	replans := 0
	for round := 0; round < 3; round++ {
		e := staleStatsFixture(t, 4000)
		res, err := e.QueryOptsCtx(ctx, staleStatsQuery, static)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := res.Plan // the cache entry's own template
		before := map[plan.Node]any{}
		plan.Walk(tmpl, func(n plan.Node) { before[n] = reflect.ValueOf(n).Elem().Interface() })

		const workers = 8
		var wg sync.WaitGroup
		var mu sync.Mutex
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					var res *Result
					var err error
					if w%2 == 0 {
						res, err = e.QueryOptsCtx(ctx, staleStatsQuery, static)
						if err == nil && !res.CacheHit {
							err = fmt.Errorf("a static run missed the plan cache")
						}
					} else if bound, berr := plan.BindParams(tmpl, []datum.Datum{datum.NewString("t7")}); berr != nil {
						err = berr
					} else {
						res, err = e.ExecuteCtx(ctx, bound, adaptive)
					}
					if err != nil {
						errs <- fmt.Errorf("worker %d run %d: %w", w, i, err)
						return
					}
					mu.Lock()
					replans += res.ReplanCount
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		for n, v := range before {
			if !reflect.DeepEqual(reflect.ValueOf(n).Elem().Interface(), v) {
				t.Errorf("round %d: %s of the cached template was written to", round, n.Describe())
			}
		}
	}
	if replans == 0 {
		t.Error("no execution re-planned: the storm ran no re-plan beside the hits")
	}
}

// TestExplainCostsUnderThePlanningEnvironment: Explain's estimate line
// describes the plan it prints — costed under the same environment the
// plan was built in and ExecuteCtx reports — not the static one.
func TestExplainCostsUnderThePlanningEnvironment(t *testing.T) {
	ctx := context.Background()
	e := staleStatsFixture(t, 4000)
	e.SetClock(netsim.NewVirtualClock(time.Unix(0, 0))) // feedback confidence decays in clock time
	if _, err := e.QueryOptsCtx(ctx, staleStatsQuery, DefaultQueryOptions()); err != nil {
		t.Fatal(err)
	}
	estimateLine := func(e *Engine, qo QueryOptions) string {
		t.Helper()
		out, err := e.Explain(ctx, staleStatsQuery, qo)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(out, "-- estimate:")
		if i < 0 {
			t.Fatalf("no estimate line in:\n%s", out)
		}
		return out[i:]
	}

	line := estimateLine(e, DefaultQueryOptions())
	p, err := e.Plan(ctx, staleStatsQuery, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteCtx(ctx, p, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("-- estimate: rows=%d ", res.Estimate.Rows); !strings.HasPrefix(line, want) {
		t.Errorf("adaptive Explain printed %q, ExecuteCtx estimated %q", line, want)
	}

	// Zero-value options still print the static estimate, feedback or not.
	if taught, fresh := estimateLine(e, QueryOptions{}), estimateLine(staleStatsFixture(t, 4000), QueryOptions{}); taught != fresh {
		t.Errorf("static Explain moved with feedback:\n taught %s\n fresh  %s", taught, fresh)
	}
}

// TestExecuteRejectsUnboundTemplate: a plan that still holds a
// placeholder — here the stale-stats query's cached template, tier = $1 —
// fails with a *plan.ParamError before any fetch, so the adaptive
// tripwire never fires on it.
func TestExecuteRejectsUnboundTemplate(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	ctx := context.Background()
	qo := QueryOptions{Parallel: true, Adaptive: true}
	res, err := e.QueryOptsCtx(ctx, staleStatsQuery, qo)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := res.Plan
	before := e.NetworkTotals()
	res, err = e.ExecuteCtx(ctx, tmpl, qo)
	var pe *plan.ParamError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("err = %v, want a *plan.ParamError for $1", err)
	}
	if res != nil && res.ReplanCount != 0 {
		t.Errorf("ReplanCount = %d", res.ReplanCount)
	}
	if after := e.NetworkTotals(); after.RoundTrips != before.RoundTrips {
		t.Errorf("%d round trips before the error", after.RoundTrips-before.RoundTrips)
	}
}

// TestReplanReportsThePlanThatRan: Result.Plan is the plan that produced
// the rows, on every entry point. A warm hit of the stale-stats query
// through QueryOptsCtx trips the cardinality tripwire and re-optimizes
// the cached template it runs, keeping its values: it reports the
// re-planned plan, not the template it replaced, and writes nothing into
// that template.
func TestReplanReportsThePlanThatRan(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	qo := QueryOptions{Parallel: true, Adaptive: true}
	tmpl, _, _, _, err := e.StatementPlan(staleStatsQuery, qo) // compiles and caches it
	if err != nil {
		t.Fatal(err)
	}
	before := map[plan.Node]any{}
	plan.Walk(tmpl, func(n plan.Node) { before[n] = reflect.ValueOf(n).Elem().Interface() })
	res, err := e.QueryOptsCtx(context.Background(), staleStatsQuery, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.ReplanCount == 0 {
		t.Fatalf("cache hit %v, %d re-plans: the warm hit did not re-plan", res.CacheHit, res.ReplanCount)
	}
	if res.Plan == tmpl {
		t.Fatalf("Result.Plan is the cached template the re-plan replaced:\n%s", plan.Explain(res.Plan))
	}
	fresh, err := e.QueryOptsCtx(context.Background(), staleStatsQuery, QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if results(t, res) != results(t, fresh) {
		t.Errorf("the re-planned hit answered %d rows, a fresh static compile %d", len(res.Rows), len(fresh.Rows))
	}
	for n, v := range before {
		if !reflect.DeepEqual(reflect.ValueOf(n).Elem().Interface(), v) {
			t.Errorf("%s of the cached template was written to", n.Describe())
		}
	}
}

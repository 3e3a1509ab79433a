package core

// Tests for the query lifecycle: prepared statements, the transparent
// plan cache, snapshot-consistent planning, and invalidation on every
// path that changes planning inputs.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/schema"
)

func TestPreparedStatementBindsParams(t *testing.T) {
	e := newFederation(t)
	ps, err := e.PrepareOpts(context.Background(), `SELECT name FROM customer360 WHERE region = $1 AND amount > $2 ORDER BY name`, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", ps.NumParams())
	}
	res, err := ps.ExecuteCtx(context.Background(), datum.NewString("west"), datum.NewFloat(60))
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, res); got != "Ann" {
		t.Fatalf("west/60 rows = %q, want Ann", got)
	}
	// Same statement, different constants — the plan is reused, only the
	// bound values change.
	res2, err := ps.ExecuteCtx(context.Background(), datum.NewString("east"), datum.NewFloat(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("second Execute should hit the plan cache")
	}
	if got := results(t, res2); got != "Bob|Cal" {
		t.Fatalf("east/10 rows = %q, want Bob|Cal", got)
	}
}

func TestPreparedStatementQuestionMarks(t *testing.T) {
	e := newFederation(t)
	ps, err := e.PrepareOpts(context.Background(), `SELECT name FROM crm.customers WHERE region = ? AND id < ?`, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.ExecuteCtx(context.Background(), datum.NewString("east"), datum.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, res); got != "Bob" {
		t.Fatalf("rows = %q, want Bob", got)
	}
}

func TestPreparedStatementArityAndErrors(t *testing.T) {
	e := newFederation(t)
	if _, err := e.PrepareOpts(context.Background(), "SELECT nope FROM nowhere", DefaultQueryOptions()); err == nil {
		t.Fatal("Prepare should surface planning errors")
	}
	ps, err := e.PrepareOpts(context.Background(), "SELECT name FROM crm.customers WHERE id = $1", DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	var pe *plan.ParamError
	if _, err := ps.ExecuteCtx(context.Background()); !errors.As(err, &pe) {
		t.Fatalf("Execute with missing params: err = %v, want a *plan.ParamError", err)
	}
}

// TestPreparedStatementReplansOnViewChange is the mid-flight DDL
// regression test: a prepared statement must pick up a view redefinition
// between executions rather than serve the plan compiled against the old
// catalog.
func TestPreparedStatementReplansOnViewChange(t *testing.T) {
	e := newFederation(t)
	if err := e.DefineView("hot", "SELECT name FROM crm.customers WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	ps, err := e.PrepareOpts(context.Background(), "SELECT name FROM hot ORDER BY name", DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, res); got != "Ann|Dee" {
		t.Fatalf("initial rows = %q, want Ann|Dee", got)
	}
	v1 := res.CatalogVersion

	// Redefine the view mid-flight.
	e.DropView("hot")
	if err := e.DefineView("hot", "SELECT name FROM crm.customers WHERE region = 'east'"); err != nil {
		t.Fatal(err)
	}
	res2, err := ps.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("execution after view change must not hit the old plan")
	}
	if res2.CatalogVersion <= v1 {
		t.Fatalf("catalog version did not advance: %d -> %d", v1, res2.CatalogVersion)
	}
	if got := results(t, res2); got != "Bob|Cal" {
		t.Fatalf("rows after redefinition = %q, want Bob|Cal (east)", got)
	}
}

func TestQueryTransparentPlanCache(t *testing.T) {
	e := newFederation(t)
	q := func(region string, amount float64) string {
		return fmt.Sprintf("SELECT name FROM customer360 WHERE region = '%s' AND amount > %g ORDER BY name", region, amount)
	}
	r1, err := e.QueryCtx(context.Background(), q("west", 60))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first execution cannot be a cache hit")
	}
	// Different constants, same shape: must hit.
	r2, err := e.QueryCtx(context.Background(), q("east", 10))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("same-shape query with different constants should hit the cache")
	}
	if got := results(t, r2); got != "Bob|Cal" {
		t.Fatalf("cached-plan rows = %q, want Bob|Cal", got)
	}
	// The cached plan must produce exactly what a fresh compile does.
	r3, err := e.QueryOptsCtx(context.Background(), q("east", 10), QueryOptions{Parallel: true, NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("NoPlanCache execution reported a cache hit")
	}
	if results(t, r2) != results(t, r3) {
		t.Fatalf("cached %q != uncached %q", results(t, r2), results(t, r3))
	}
	st := e.PlanCacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("stats = %+v, want at least one hit and one miss", st)
	}
}

func TestQueryCacheDistinguishesOptimizerOptions(t *testing.T) {
	e := newFederation(t)
	const sql = "SELECT name FROM crm.customers WHERE region = 'west' ORDER BY name"
	if _, err := e.QueryCtx(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	// A different optimizer configuration must not reuse the plan.
	r, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Optimizer: opt.Options{NoJoinReorder: true, NoFilterPushdown: true}, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Fatal("ablated optimizer options reused the optimized plan")
	}
}

// TestQueryCacheMergesNoSemiJoinSpellings: QueryOptions.NoSemiJoin and
// Optimizer.NoSemiJoin plan identically, so they share one cache entry.
func TestQueryCacheMergesNoSemiJoinSpellings(t *testing.T) {
	e := newFederation(t)
	const sql = "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west'"
	r1, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{NoSemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := e.PlanCacheStats().Entries
	r2, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Optimizer: opt.Options{NoSemiJoin: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.Plan != r1.Plan {
		t.Fatalf("Optimizer.NoSemiJoin after QueryOptions.NoSemiJoin: cache hit %v, same plan %v; want both", r2.CacheHit, r2.Plan == r1.Plan)
	}
	if got := e.PlanCacheStats().Entries; got != entries {
		t.Fatalf("the second spelling grew the cache %d -> %d", entries, got)
	}
	if results(t, r1) != results(t, r2) {
		t.Fatalf("rows differ: %q vs %q", results(t, r1), results(t, r2))
	}
}

// TestSubqueryStatementsHitPlanCache: a subquery is planned with its
// statement, so an EXISTS statement compiles once and its second run is a
// cache hit on the one entry the first run stored.
func TestSubqueryStatementsHitPlanCache(t *testing.T) {
	e := newFederation(t)
	const sql = "SELECT name FROM crm.customers WHERE EXISTS (SELECT cust_id FROM billing.invoices WHERE status = 'open')"
	r, err := e.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	entriesAfterFirst := e.PlanCacheStats().Entries
	if entriesAfterFirst != 1 {
		t.Fatalf("first run left %d cached plans, want 1", entriesAfterFirst)
	}
	r2, err := e.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second run missed the plan cache")
	}
	if got := e.PlanCacheStats().Entries; got != entriesAfterFirst {
		t.Fatalf("rerun grew the cache %d -> %d", entriesAfterFirst, got)
	}
	if results(t, r) != results(t, r2) {
		t.Fatalf("rows differ: %q vs %q", results(t, r), results(t, r2))
	}
}

func TestCorrelationAndBreakerConfigInvalidatePlans(t *testing.T) {
	e := newFederation(t)
	if _, err := e.QueryCtx(context.Background(), "SELECT name FROM crm.customers WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	v := e.Catalog().Version()
	e.SetBreakerConfig(BreakerConfig{FailureThreshold: 5})
	if e.Catalog().Version() <= v {
		t.Fatal("SetBreakerConfig did not bump the catalog version")
	}
	r, err := e.QueryCtx(context.Background(), "SELECT name FROM crm.customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Fatal("plan survived a breaker reconfiguration")
	}
}

// TestConcurrentQueriesVsCatalogChurn runs queries while sources and views
// register and deregister. Every query must either succeed or fail with a
// planning error — never race, panic, or observe a half-mutated catalog.
// Run with -race.
func TestConcurrentQueriesVsCatalogChurn(t *testing.T) {
	e := newFederation(t)
	var wg sync.WaitGroup

	// Readers: hammer cached and uncached paths.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				sql := fmt.Sprintf("SELECT name FROM customer360 WHERE amount > %d", i%7*10)
				if _, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Parallel: w%2 == 0}); err != nil {
					// Planning errors are legal while the catalog churns
					// (a view may be mid-redefinition); crashes are not.
					continue
				}
			}
		}(w)
	}

	// View churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			_ = e.DefineView("churn", "SELECT name FROM crm.customers")
			e.DropView("churn")
		}
	}()

	// Source churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			s := federation.NewRelationalSource("flaky", federation.FullSQL(),
				netsim.NewLink(0, 1e6, 1))
			if _, err := s.CreateTable(schema.MustTable("blips", []schema.Column{
				{Name: "id", Kind: datum.KindInt},
			})); err != nil {
				t.Error(err)
				return
			}
			if err := e.Register(s); err != nil {
				continue
			}
			e.Deregister("flaky")
		}
	}()

	wg.Wait()
}

func TestQueryCacheNormalizesWhitespaceAndCase(t *testing.T) {
	e := newFederation(t)
	// The cache key is the normalized statement rendered from the AST, so
	// spellings differing only in insignificant whitespace, keyword case
	// and literal constants must all share one cached plan.
	variants := []string{
		"SELECT name FROM customer360 WHERE region = 'west' AND amount > 60 ORDER BY name",
		"select name from customer360 where region = 'west' and amount > 60 order by name",
		"SELECT   name\n\tFROM customer360\n\tWHERE region = 'west' AND amount > 60\n\tORDER BY name",
		"Select name From customer360 Where region = 'east' AND amount > 10 Order By name",
	}
	r0, err := e.QueryCtx(context.Background(), variants[0])
	if err != nil {
		t.Fatal(err)
	}
	if r0.CacheHit {
		t.Fatal("first execution cannot be a cache hit")
	}
	for _, sql := range variants[1:] {
		r, err := e.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		if !r.CacheHit {
			t.Errorf("Query(%q) missed the cache; respelled statement must share the plan", sql)
		}
	}
	// Hit-rate regression: all variants after the first must be hits, so
	// one miss total across the workload.
	st := e.PlanCacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 across %d respelled executions", st.Misses, len(variants))
	}
	if want := uint64(len(variants) - 1); st.Hits < want {
		t.Errorf("hits = %d, want at least %d", st.Hits, want)
	}
	if rate := st.HitRate(); rate < 0.7 {
		t.Errorf("hit rate = %.2f, want >= 0.75 for a respelled single-shape workload", rate)
	}
}

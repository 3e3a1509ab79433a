package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
)

func TestInSubqueryBasic(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// Invoices > 60: cust 1 (100), cust 2 (75) → Ann, Bob.
	if got := results(t, r); got != "Ann|Bob" {
		t.Errorf("got %q", got)
	}
}

func TestNotInSubquery(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// Customers 1,2,3 have invoices; 4 (Dee) does not.
	if got := results(t, r); got != "Dee" {
		t.Errorf("got %q", got)
	}
}

func TestInSubqueryEmptyResult(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 0 {
		t.Errorf("empty IN must match nothing, got %v", r.Rows[0][0])
	}
	r, err = e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("empty NOT IN must match everything, got %v", r.Rows[0][0])
	}
}

func TestInSubqueryOverMediatedView(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers
		WHERE id IN (SELECT id FROM customer360 WHERE amount >= 75)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

func TestInSubqueryColumnArityError(t *testing.T) {
	e := newFederation(t)
	_, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id, amount FROM billing.invoices)`)
	if err == nil || !strings.Contains(err.Error(), "one column") {
		t.Fatalf("multi-column IN subquery must error, got %v", err)
	}
}

func TestInSubqueryRoundTripSQL(t *testing.T) {
	// The AST rendering of IN-subqueries must re-parse.
	e := newFederation(t)
	q := "SELECT name FROM crm.customers WHERE (id IN (SELECT cust_id FROM billing.invoices))"
	if _, err := e.QueryCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSubqueryPlaceholder: a placeholder inside an IN subquery
// counts toward the statement's parameters and binds, and the plan
// serves the second execution from the cache.
func TestPreparedSubqueryPlaceholder(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	ps, err := e.PrepareOpts(ctx, `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > $1)
		ORDER BY name`, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", ps.NumParams())
	}
	for i := 0; i < 2; i++ {
		r, err := ps.ExecuteCtx(ctx, datum.NewFloat(60))
		if err != nil {
			t.Fatal(err)
		}
		if got := results(t, r); got != "Ann|Bob" {
			t.Errorf("execution %d: got %q", i+1, got)
		}
		if i > 0 && !r.CacheHit {
			t.Error("second execution missed the plan cache")
		}
	}
}

// TestViewWithSubquery: a view whose body holds a subquery answers, is
// cached, and is retired by a write to the name its subquery reads.
func TestViewWithSubquery(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	if err := e.DefineView("spenders", `SELECT id, name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM invoices WHERE amount > 30)`); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT name FROM spenders ORDER BY name"
	for i := 0; i < 2; i++ {
		r, err := e.QueryCtx(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := results(t, r); got != "Ann|Bob" {
			t.Errorf("run %d: got %q", i+1, got)
		}
		if r.CacheHit != (i > 0) {
			t.Errorf("run %d: CacheHit = %v", i+1, r.CacheHit)
		}
	}
	// A view named invoices now answers the subquery's bare name.
	before := e.PlanCacheStats().Invalidations
	if err := e.DefineView("invoices", "SELECT cust_id, amount FROM billing.invoices WHERE status = 'open'"); err != nil {
		t.Fatal(err)
	}
	if got := e.PlanCacheStats().Invalidations - before; got != 1 {
		t.Errorf("the write retired %d plans, want 1", got)
	}
	r, err := e.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("the view's plan was served from the cache after the write")
	}
	if got := results(t, r); got != "Ann" {
		t.Errorf("after the write: got %q, want Ann", got)
	}
}

// TestSubqueryPlanningShipsNothing: Plan and Explain of a subquery
// statement contact no source, and its execution accounts for the
// subquery's fetch as the hand-written join does for its own.
func TestSubqueryPlanningShipsNothing(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	const sql = `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)
		ORDER BY name`
	before := e.NetworkTotals()
	if _, err := e.Plan(ctx, sql, DefaultQueryOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explain(ctx, sql, DefaultQueryOptions()); err != nil {
		t.Fatal(err)
	}
	if after := e.NetworkTotals(); after != before {
		t.Fatalf("planning shipped %d B in %d round trips", after.BytesShipped-before.BytesShipped, after.RoundTrips-before.RoundTrips)
	}
	sub, err := e.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	join, err := e.QueryCtx(ctx, `SELECT c.name FROM crm.customers c
		JOIN (SELECT DISTINCT cust_id FROM billing.invoices WHERE amount > 60) k ON c.id = k.cust_id
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if results(t, sub) != results(t, join) {
		t.Fatalf("subquery %q, join %q", results(t, sub), results(t, join))
	}
	if sub.Network.RoundTrips != 2 || sub.Network.BytesShipped != join.Network.BytesShipped {
		t.Errorf("subquery shipped %d B in %d trips, the join %d B in %d",
			sub.Network.BytesShipped, sub.Network.RoundTrips, join.Network.BytesShipped, join.Network.RoundTrips)
	}
}

// TestInSubqueryReducesOuterFetch: the keys of an IN subquery reduce the
// outer fetch as a join's probe keys do.
func TestInSubqueryReducesOuterFetch(t *testing.T) {
	e := semiFixture(t, 2000, federation.FullSQL())
	const sql = "SELECT pick_id, payload FROM fact.events WHERE pick_id IN (SELECT id FROM dim.picks) ORDER BY pick_id"
	with, err := e.QueryOptsCtx(context.Background(), sql, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	qo := DefaultQueryOptions()
	qo.NoSemiJoin = true
	without, err := e.QueryOptsCtx(context.Background(), sql, qo)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := results(t, with), results(t, without); got != want || len(with.Rows) != 5 {
		t.Fatalf("reduced %q, full %q", got, want)
	}
	if with.Network.BytesShipped*10 >= without.Network.BytesShipped {
		t.Errorf("reduced fetch shipped %d B, full fetch %d B: want at least 10x fewer", with.Network.BytesShipped, without.Network.BytesShipped)
	}
}

// TestExistsOverSkippedSourceIsPartial: an EXISTS subquery over a source
// AllowPartial skips flags the answer partial, names the source, and
// answers a subset of the exact answer.
func TestExistsOverSkippedSourceIsPartial(t *testing.T) {
	e := fanOutFederation(t, 4)
	down, _ := e.Source("s2")
	down.Link().SetDown(true)
	qo := DefaultQueryOptions()
	qo.AllowPartial = true
	r, err := e.QueryOptsCtx(context.Background(), "SELECT v FROM s0.t WHERE EXISTS (SELECT v FROM s2.t)", qo)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Partial || len(r.SkippedSources) != 1 || r.SkippedSources[0] != "s2" {
		t.Errorf("Partial = %v, SkippedSources = %v; want partial without s2", r.Partial, r.SkippedSources)
	}
	// The exact answer is the one row of s0.t.
	if got := results(t, r); got != "" && got != "0" {
		t.Errorf("got %q, not a subset of the exact answer 0", got)
	}
}

// TestCorrelatedSubqueryNamesOuterColumn: a subquery resolves names in
// its own FROM alone, so a correlated one fails to plan, naming the outer
// column.
func TestCorrelatedSubqueryNamesOuterColumn(t *testing.T) {
	e := newFederation(t)
	for _, sql := range []string{
		"SELECT name FROM crm.customers c WHERE EXISTS (SELECT 1 FROM billing.invoices i WHERE i.cust_id = c.id)",
		"SELECT name FROM crm.customers c WHERE 50 IN (SELECT amount FROM billing.invoices i WHERE i.cust_id = c.id)",
	} {
		_, err := e.QueryCtx(context.Background(), sql)
		if err == nil || !strings.Contains(err.Error(), "c.id") {
			t.Errorf("%s: err = %v, want one naming c.id", sql, err)
		}
	}
}

// TestNestedSubqueriesFailFast: thirty nested NOT INs would plan their
// innermost subquery 2^30 times; the statement fails at the builder's
// subquery bound instead, before any source is contacted.
func TestNestedSubqueriesFailFast(t *testing.T) {
	e := newFederation(t)
	sql := "SELECT cust_id FROM billing.invoices"
	for i := 0; i < 30; i++ {
		sql = "SELECT cust_id FROM billing.invoices WHERE cust_id NOT IN (" + sql + ")"
	}
	before := e.NetworkTotals()
	_, err := e.QueryCtx(context.Background(), sql)
	if err == nil || !strings.Contains(err.Error(), "at most 16 subqueries") {
		t.Fatalf("err = %v, want the subquery bound", err)
	}
	if after := e.NetworkTotals(); after != before {
		t.Errorf("the failed statement shipped %d B in %d round trips", after.BytesShipped-before.BytesShipped, after.RoundTrips-before.RoundTrips)
	}
}

// TestExplainSubqueryOmitsUnrenderedPushdown: Explain prints no pushdown
// text for a fetch that a single SELECT cannot state: EXISTS's COUNT(*)
// over LIMIT 1 with a filter over the count, or an IN subquery's DISTINCT
// keys joined at the outer query's own source.
func TestExplainSubqueryOmitsUnrenderedPushdown(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	ex, err := e.Explain(ctx, "SELECT name FROM crm.customers WHERE EXISTS (SELECT 1 FROM billing.invoices WHERE amount > 60)", DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "Aggregate COUNT(*)") || !strings.Contains(ex, "-- pushdown @crm:") {
		t.Fatalf("plan or outer pushdown missing:\n%s", ex)
	}
	if strings.Contains(ex, "-- pushdown @billing") {
		t.Errorf("the count's fetch is rendered as flat SQL:\n%s", ex)
	}
	ex, err = e.Explain(ctx, "SELECT name FROM crm.customers WHERE id IN (SELECT id FROM crm.customers WHERE region = 'west')", DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "Distinct") || strings.Contains(ex, "-- pushdown") {
		t.Errorf("the join with the DISTINCT keys is rendered as flat SQL:\n%s", ex)
	}
}

// TestExplainOmitsJoinOverRenamingView: a join pushed to one source over
// a view that renames its columns prints no pushdown text, which would
// name the view's binding in a FROM that lacks it, and still answers.
func TestExplainOmitsJoinOverRenamingView(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	if err := e.DefineView("v", "SELECT id AS cid, name AS nm FROM crm.customers"); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT v.nm, c.region FROM v JOIN crm.customers c ON v.cid = c.id"
	ex, err := e.Explain(ctx, sql, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "JOIN ON (v.cid = c.id)") || strings.Contains(ex, "-- pushdown") {
		t.Errorf("plan missing, or the join rendered as flat SQL:\n%s", ex)
	}
	res, err := e.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("%d rows, want 4", len(res.Rows))
	}
}

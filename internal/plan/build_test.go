package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// testCatalog builds a two-source catalog with a mediated view, mirroring
// the paper's CRM scenario.
func testCatalog(t *testing.T) *catalog.Global {
	t.Helper()
	g := catalog.NewGlobal()
	crm := catalog.NewSourceCatalog("crm")
	crm.AddTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString},
	}, 0), nil)
	billing := catalog.NewSourceCatalog("billing")
	billing.AddTable(schema.MustTable("invoices", []schema.Column{
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
	}), nil)
	if err := g.AddSource(crm); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSource(billing); err != nil {
		t.Fatal(err)
	}
	if err := g.DefineView("customer360",
		"SELECT c.id AS id, c.name AS name, i.amount AS amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id"); err != nil {
		t.Fatal(err)
	}
	return g
}

func build(t *testing.T, g *catalog.Global, sql string) Node {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	n, err := Build(g, sel)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return n
}

func buildErr(t *testing.T, g *catalog.Global, sql string) error {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	_, err = Build(g, sel)
	if err == nil {
		t.Fatalf("build %q: expected error", sql)
	}
	return err
}

func TestBuildSimpleScanFilterProject(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT name FROM crm.customers WHERE id = 7")
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("top = %T", n)
	}
	if len(p.Cols) != 1 || p.Cols[0].Name != "name" || p.Cols[0].Kind != datum.KindString {
		t.Errorf("project cols = %+v", p.Cols)
	}
	f, ok := p.Input.(*Filter)
	if !ok {
		t.Fatalf("project input = %T", p.Input)
	}
	s, ok := f.Input.(*Scan)
	if !ok || s.Source != "crm" || s.Table != "customers" || s.Alias != "customers" {
		t.Errorf("scan = %+v", s)
	}
}

func TestBuildStarExpansion(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT * FROM crm.customers")
	cols := n.Columns()
	if len(cols) != 3 || cols[0].Name != "id" || cols[2].Name != "region" {
		t.Errorf("star columns = %+v", cols)
	}
	n = build(t, g, "SELECT c.* FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id")
	if len(n.Columns()) != 3 {
		t.Errorf("qualified star = %+v", n.Columns())
	}
}

func TestBuildViewUnfolding(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT id, amount FROM customer360 WHERE amount > 100")
	// The view must be gone: only Scans on crm and billing remain.
	sources := SourcesOf(n)
	if len(sources) != 2 || sources[0] != "billing" || sources[1] != "crm" {
		t.Errorf("sources after unfolding = %v", sources)
	}
	joins := 0
	Walk(n, func(x Node) {
		if _, ok := x.(*Join); ok {
			joins++
		}
	})
	if joins != 1 {
		t.Errorf("joins = %d, want the view's join", joins)
	}
}

func TestBuildViewAlias(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT v.id FROM customer360 v WHERE v.amount > 1")
	if len(n.Columns()) != 1 || n.Columns()[0].Name != "id" {
		t.Errorf("cols = %+v", n.Columns())
	}
}

func TestBuildCyclicViewRejected(t *testing.T) {
	g := catalog.NewGlobal()
	if err := g.DefineView("a", "SELECT x FROM b"); err != nil {
		t.Fatal(err)
	}
	if err := g.DefineView("b", "SELECT x FROM a"); err != nil {
		t.Fatal(err)
	}
	err := buildErr(t, g, "SELECT x FROM a")
	if !strings.Contains(err.Error(), "cyclic") && !strings.Contains(err.Error(), "nesting") {
		t.Errorf("cyclic view error = %v", err)
	}
}

func TestBuildAggregate(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, `SELECT region, COUNT(*) AS n, SUM(i.amount) AS total
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id
		GROUP BY region HAVING COUNT(*) > 1 ORDER BY total DESC`)
	var agg *Aggregate
	Walk(n, func(x Node) {
		if a, ok := x.(*Aggregate); ok {
			agg = a
		}
	})
	if agg == nil {
		t.Fatal("no aggregate node")
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Errorf("agg shape: groups=%d aggs=%d", len(agg.GroupBy), len(agg.Aggs))
	}
	cols := n.Columns()
	if len(cols) != 3 || cols[1].Name != "n" || cols[1].Kind != datum.KindInt {
		t.Errorf("output cols = %+v", cols)
	}
}

func TestBuildAggregateErrors(t *testing.T) {
	g := testCatalog(t)
	if err := buildErr(t, g, "SELECT name FROM crm.customers GROUP BY region"); !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("ungrouped column error = %v", err)
	}
	buildErr(t, g, "SELECT SUM(COUNT(id)) FROM crm.customers")
	buildErr(t, g, "SELECT region FROM crm.customers WHERE COUNT(*) > 1")
	buildErr(t, g, "SELECT region FROM crm.customers GROUP BY SUM(id)")
}

func TestBuildImplicitAggregate(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT COUNT(*) FROM crm.customers")
	found := false
	Walk(n, func(x Node) {
		if a, ok := x.(*Aggregate); ok && len(a.GroupBy) == 0 {
			found = true
		}
	})
	if !found {
		t.Error("aggregate without GROUP BY must still build an Aggregate node")
	}
}

func TestBuildOrderByHiddenColumn(t *testing.T) {
	g := testCatalog(t)
	// ORDER BY a column not in the select list: widen/narrow path.
	n := build(t, g, "SELECT name FROM crm.customers ORDER BY id DESC")
	if len(n.Columns()) != 1 || n.Columns()[0].Name != "name" {
		t.Errorf("final cols = %+v", n.Columns())
	}
	var hasSort bool
	Walk(n, func(x Node) {
		if _, ok := x.(*Sort); ok {
			hasSort = true
		}
	})
	if !hasSort {
		t.Error("sort node missing")
	}
	// With DISTINCT this must be rejected.
	buildErr(t, g, "SELECT DISTINCT name FROM crm.customers ORDER BY id")
}

func TestBuildLimitOffset(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT id FROM crm.customers LIMIT 5 OFFSET 2")
	l, ok := n.(*Limit)
	if !ok || l.Count != 5 || l.Offset != 2 {
		t.Fatalf("limit = %+v", n)
	}
	buildErr(t, g, "SELECT id FROM crm.customers LIMIT id")
	buildErr(t, g, "SELECT id FROM crm.customers LIMIT -1")
}

func TestBuildUnionAll(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT id FROM crm.customers UNION ALL SELECT cust_id FROM billing.invoices")
	u, ok := n.(*Union)
	if !ok || len(u.Inputs) != 2 {
		t.Fatalf("union = %T", n)
	}
	buildErr(t, g, "SELECT id, name FROM crm.customers UNION ALL SELECT cust_id FROM billing.invoices")
}

func TestBuildSubqueryTable(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT v.id FROM (SELECT id FROM crm.customers WHERE region = 'west') v")
	if len(n.Columns()) != 1 || n.Columns()[0].Name != "id" {
		t.Errorf("cols = %+v", n.Columns())
	}
}

func TestBuildNameErrors(t *testing.T) {
	g := testCatalog(t)
	buildErr(t, g, "SELECT nope FROM crm.customers")
	buildErr(t, g, "SELECT id FROM nosuch")
	buildErr(t, g, "SELECT x.id FROM crm.customers")
	// Ambiguous: id exists on both sides after join aliasing? Use same table twice.
	buildErr(t, g, "SELECT id FROM crm.customers a JOIN crm.customers b ON a.id = b.id")
}

// TestBuildExistsRejected: an uncorrelated EXISTS joins its subquery's
// plan onto the query's; a correlated one, or one outside WHERE and
// HAVING, fails to plan.
func TestBuildExistsRejected(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT id FROM crm.customers WHERE EXISTS (SELECT 1 FROM billing.invoices)")
	if ex := Explain(n); !strings.Contains(ex, "Aggregate COUNT(*)") || !strings.Contains(ex, "Scan billing.invoices") {
		t.Errorf("EXISTS not joined into the plan:\n%s", ex)
	}
	err := buildErr(t, g, "SELECT id FROM crm.customers c WHERE EXISTS (SELECT 1 FROM billing.invoices i WHERE i.cust_id = c.id)")
	if !strings.Contains(err.Error(), "c.id") {
		t.Errorf("correlated EXISTS: error = %v, want one naming c.id", err)
	}
	err = buildErr(t, g, "SELECT EXISTS (SELECT 1 FROM billing.invoices) FROM crm.customers")
	if !strings.Contains(err.Error(), "WHERE and HAVING") {
		t.Errorf("EXISTS in the select list: error = %v", err)
	}
}

// TestBuildSubqueryColumnsAreHidden: the columns a subquery join adds are
// invisible to * and to written references, so a subquery reading a
// column of the outer query's name adds no ambiguity.
func TestBuildSubqueryColumnsAreHidden(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT * FROM crm.customers WHERE id NOT IN (SELECT cust_id FROM billing.invoices) OR id IN (SELECT id FROM crm.customers)")
	want := build(t, g, "SELECT * FROM crm.customers")
	if got, w := len(n.Columns()), len(want.Columns()); got != w {
		t.Errorf("* selected %d columns, want %d", got, w)
	}
	build(t, g, "SELECT id FROM crm.customers WHERE id IN (SELECT id FROM crm.customers)")
}

// TestBuildBoundsSubqueryJoins: each NOT IN plans its subquery twice, so
// nested NOT INs double the plan at every level. A statement may join at
// most maxSubqueries subqueries: four levels (15 joins) build, and thirty
// levels fail at the seventeenth join instead of building 2^30 subplans.
func TestBuildBoundsSubqueryJoins(t *testing.T) {
	g := testCatalog(t)
	nested := func(levels int) string {
		q := "SELECT id FROM crm.customers"
		for i := 0; i < levels; i++ {
			q = "SELECT id FROM crm.customers WHERE id NOT IN (" + q + ")"
		}
		return q
	}
	build(t, g, nested(4))
	err := buildErr(t, g, nested(30))
	if !strings.Contains(err.Error(), "at most 16 subqueries") {
		t.Errorf("30 nested NOT INs: error = %v, want the subquery bound", err)
	}
}

func TestExplainAndTransform(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT name FROM crm.customers WHERE id = 1 ORDER BY name LIMIT 3")
	ex := Explain(n)
	for _, want := range []string{"Limit", "Sort", "Project", "Filter", "Scan crm.customers"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain missing %q:\n%s", want, ex)
		}
	}
	// Transform: drop all filters.
	stripped := Transform(nil, n, func(x Node) Node {
		if f, ok := x.(*Filter); ok {
			return f.Input
		}
		return x
	})
	if strings.Contains(Explain(stripped), "Filter") {
		t.Error("transform failed to remove filter")
	}
	// Original must be untouched.
	if !strings.Contains(Explain(n), "Filter") {
		t.Error("transform mutated the original tree")
	}
}

// TestBuildDoesNotWriteIntoItsInput: Build reads the statement it is given
// and every stored view it unfolds, and writes into neither. A view's AST
// lives in a published catalog snapshot that every planner shares.
func TestBuildDoesNotWriteIntoItsInput(t *testing.T) {
	g := testCatalog(t)
	const def = "SELECT region, COUNT(*) AS n FROM crm.customers GROUP BY region ORDER BY COUNT(*) DESC"
	if err := g.DefineView("regions", def); err != nil {
		t.Fatal(err)
	}
	v, ok := g.View("regions")
	if !ok {
		t.Fatal("view not registered")
	}
	want := v.Query.SQL()

	// The stored view itself, as view-update analysis plans it.
	if _, err := Build(g.Snapshot(), v.Query); err != nil {
		t.Fatal(err)
	}
	if got := v.Query.SQL(); got != want {
		t.Fatalf("Build rewrote the stored view:\n got %s\nwant %s", got, want)
	}
	// Unfolded under a query, twice: each use reads the same stored AST.
	for i := 0; i < 2; i++ {
		ex := Explain(build(t, g, "SELECT region, n FROM regions WHERE n > 1"))
		if !strings.Contains(ex, "Sort") || !strings.Contains(ex, "Aggregate BY region: COUNT(*)") {
			t.Fatalf("unfolded view plan:\n%s", ex)
		}
	}
	if got := v.Query.SQL(); got != want {
		t.Fatalf("unfolding rewrote the stored view:\n got %s\nwant %s", got, want)
	}
	// A top-level statement is read-only too.
	sel, err := sqlparse.Parse("SELECT name, SUM(amount) FROM customer360 GROUP BY name ORDER BY SUM(amount)")
	if err != nil {
		t.Fatal(err)
	}
	before := sel.SQL()
	if _, err := Build(g, sel); err != nil {
		t.Fatal(err)
	}
	if got := sel.SQL(); got != before {
		t.Fatalf("Build rewrote its statement:\n got %s\nwant %s", got, before)
	}
}

func TestResolveColumnRules(t *testing.T) {
	cols := []ColMeta{
		{Table: "a", Name: "id"},
		{Table: "b", Name: "id"},
		{Table: "a", Name: "name"},
	}
	if _, err := ResolveColumn(cols, &sqlparse.ColumnRef{Column: "id"}); err == nil {
		t.Error("unqualified ambiguous ref must error")
	}
	i, err := ResolveColumn(cols, &sqlparse.ColumnRef{Table: "b", Column: "ID"})
	if err != nil || i != 1 {
		t.Errorf("qualified ref: i=%d err=%v", i, err)
	}
	i, err = ResolveColumn(cols, &sqlparse.ColumnRef{Column: "NAME"})
	if err != nil || i != 2 {
		t.Errorf("unique unqualified ref: i=%d err=%v", i, err)
	}
	if _, err := ResolveColumn(cols, &sqlparse.ColumnRef{Column: "zzz"}); err == nil {
		t.Error("missing ref must error")
	}
}

func TestFromlessSelect(t *testing.T) {
	g := testCatalog(t)
	n := build(t, g, "SELECT 1 + 2 AS three")
	p, ok := n.(*Project)
	if !ok || len(p.Cols) != 1 || p.Cols[0].Name != "three" || p.Cols[0].Kind != datum.KindInt {
		t.Errorf("fromless select plan = %+v", n)
	}
}

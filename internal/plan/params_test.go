package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

func paramTestCatalog(t testing.TB) *catalog.Global {
	t.Helper()
	g := catalog.NewGlobal()
	crm := catalog.NewSourceCatalog("crm")
	crm.AddTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString},
	}), nil)
	billing := catalog.NewSourceCatalog("billing")
	billing.AddTable(schema.MustTable("invoices", []schema.Column{
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
		{Name: "status", Kind: datum.KindString},
	}), nil)
	if err := g.AddSource(crm); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSource(billing); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustBuild(t testing.TB, g *catalog.Global, sql string) Node {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(g.Snapshot(), sel)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBindParamsReplacesPlaceholders(t *testing.T) {
	g := paramTestCatalog(t)
	tmpl := mustBuild(t, g, `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = $1 AND i.amount > $2`)
	before := Explain(tmpl)
	if !strings.Contains(before, "$1") || !strings.Contains(before, "$2") {
		t.Fatalf("template lacks its placeholders:\n%s", before)
	}
	bound, err := BindParams(tmpl, []datum.Datum{datum.NewString("west"), datum.NewFloat(800)})
	if err != nil {
		t.Fatal(err)
	}
	desc := Explain(bound)
	if strings.Contains(desc, "$1") || strings.Contains(desc, "$2") {
		t.Fatalf("bound plan still has placeholders:\n%s", desc)
	}
	if !strings.Contains(desc, "west") || !strings.Contains(desc, "800") {
		t.Fatalf("bound plan missing values:\n%s", desc)
	}
	// The template must be untouched so a cached plan can be re-bound.
	if Explain(tmpl) != before {
		t.Fatal("BindParams mutated the template plan")
	}
}

func TestBindParamsArityError(t *testing.T) {
	g := paramTestCatalog(t)
	tmpl := mustBuild(t, g, "SELECT name FROM crm.customers WHERE region = $1 AND id > $2")
	if _, err := BindParams(tmpl, []datum.Datum{datum.NewString("west")}); err == nil {
		t.Fatal("expected arity error binding 1 value to a 2-param plan")
	}
}

func TestBindParamsSharesConstantSubtrees(t *testing.T) {
	g := paramTestCatalog(t)
	tmpl := mustBuild(t, g, `SELECT c.name FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE i.status = $1`)
	bound, err := BindParams(tmpl, []datum.Datum{datum.NewString("overdue")})
	if err != nil {
		t.Fatal(err)
	}
	// Find the customers-side scan in both trees: it holds no parameters,
	// so binding must share it rather than copy.
	find := func(n Node) Node {
		var hit Node
		Walk(n, func(x Node) {
			if s, ok := x.(*Scan); ok && strings.EqualFold(s.Table, "customers") {
				hit = x
			}
		})
		return hit
	}
	if a, b := find(tmpl), find(bound); a == nil || a != b {
		t.Fatalf("constant subtree was not shared: %p vs %p", a, b)
	}
}

func TestBindParamsPreservesAggregateColumns(t *testing.T) {
	g := paramTestCatalog(t)
	tmpl := mustBuild(t, g, `SELECT region, COUNT(*) FROM crm.customers
		WHERE id > $1 GROUP BY region ORDER BY region`)
	bound, err := BindParams(tmpl, []datum.Datum{datum.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tmpl.Columns(), bound.Columns()
	if len(a) != len(b) {
		t.Fatalf("column count changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("column %d renamed: %q -> %q", i, a[i].Name, b[i].Name)
		}
	}
}

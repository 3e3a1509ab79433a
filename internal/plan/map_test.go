package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/sqlparse"
)

func mustExpr(t testing.TB, sql string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(sql)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMapEveryNode pins Map's copy-on-change rule on every node type:
// identity callbacks hand the node back without allocating; a changed
// expression copies the node once and shares its column list; and a node
// whose input and expression both change is still copied once.
func TestMapEveryNode(t *testing.T) {
	s := &Scan{Source: "src", Table: "t", Alias: "a", Cols: []ColMeta{{Table: "a", Name: "x", Kind: datum.KindInt}}}
	x, mark, repl := mustExpr(t, "a.x"), mustExpr(t, "a.x > 1"), mustExpr(t, "a.x > 2")
	// in replaces s with a node over the very same column list.
	in := &Filter{Input: s, Cond: x}

	cases := []struct {
		n Node
		// lists is how many of the node's lists hold mark, each copied
		// when it changes; -1 for a node without expressions.
		lists int
	}{
		{s, -1},
		{&Filter{Input: s, Cond: mark, Parallel: 2}, 0},
		{&Project{Input: s, Exprs: []sqlparse.Expr{x, mark}, Cols: []ColMeta{{Name: "x"}, {Name: "m"}}, Parallel: 2}, 1},
		{NewJoin(nil, sqlparse.JoinLeft, s, s, mark), 0},
		{NewAggregate(nil, s, []sqlparse.Expr{mark}, []AggSpec{{Func: "COUNT", Star: true}, {Func: "MAX", Arg: mark}}), 2},
		{&Sort{Input: s, Keys: []SortKey{{Expr: x}, {Expr: mark, Desc: true}}}, 1},
		{&Limit{Input: s, Count: 3, Offset: 1}, -1},
		{&Distinct{Input: s}, -1},
		{&Union{Inputs: []Node{s, s}}, -1},
		{&Remote{Source: "src", Child: s, AllowKeyFilter: true}, -1},
	}
	same := func(n Node) Node { return n }
	sameExpr := func(e sqlparse.Expr) sqlparse.Expr { return e }
	swap := func(n Node) Node {
		if n == s {
			return in
		}
		return n
	}
	calls := 0
	bump := func(e sqlparse.Expr) sqlparse.Expr {
		calls++
		if e == mark {
			return repl
		}
		return e
	}
	for _, tc := range cases {
		n := tc.n
		before := Explain(n)
		if got := Map(nil, n, same, sameExpr); got != n {
			t.Errorf("%T: identity Map copied the node", n)
		}
		if a := testing.AllocsPerRun(50, func() { Map(nil, n, same, sameExpr) }); a != 0 {
			t.Errorf("%T: identity Map allocates %.1f per run, want 0", n, a)
		}

		calls = 0
		out := Map(nil, n, same, bump)
		if tc.lists < 0 {
			if out != n || calls != 0 {
				t.Errorf("%T: Map changed a node without expressions (%d expression calls)", n, calls)
			}
			continue
		}
		if out == n || !strings.Contains(Explain(out), "> 2") || strings.Contains(Explain(out), "> 1") {
			t.Errorf("%T: changed expression not mapped:\n%s", n, Explain(out))
		}
		if !sameColumns(out.Columns(), n.Columns()) {
			t.Errorf("%T: a changed expression recomputed the columns", n)
		}
		if a := testing.AllocsPerRun(50, func() { Map(nil, n, same, bump) }); a != float64(1+tc.lists) {
			t.Errorf("%T: Map of a changed expression allocates %.1f per run, want %d (one node copy, %d lists)", n, a, 1+tc.lists, tc.lists)
		}

		both := Map(nil, n, swap, bump)
		got := false
		MapInputs(nil, both, func(i Node) Node { got = got || i == in; return i })
		if !got || !strings.Contains(Explain(both), "> 2") || !sameColumns(both.Columns(), n.Columns()) {
			t.Errorf("%T: Map of a changed input and expression:\n%s", n, Explain(both))
		}
		if a := testing.AllocsPerRun(50, func() { Map(nil, n, swap, bump) }); a != float64(1+tc.lists) {
			t.Errorf("%T: Map of a changed input and expression allocates %.1f per run, want %d: the node is copied once", n, a, 1+tc.lists)
		}
		if Explain(n) != before {
			t.Errorf("%T: Map wrote into its input:\n%s", n, Explain(n))
		}
	}
}

// bindTemplate is a template with a placeholder in each place a plan
// holds expressions: a Filter's condition, a Project's expressions, an
// Aggregate's group-by and argument, and a Sort key. The builder sorts on
// a projected column, so the Sort with a placeholder key is put on top by
// hand.
func bindTemplate(t testing.TB, g *catalog.Global) Node {
	t.Helper()
	agg := mustBuild(t, g, `SELECT id % $1 AS b, SUM(id * $2) + $3 AS s FROM crm.customers
		WHERE region = $4 GROUP BY id % $1`)
	return &Sort{Input: agg, Keys: []SortKey{{Expr: mustExpr(t, "s * $5"), Desc: true}}}
}

var bindValues = []datum.Datum{datum.NewInt(7), datum.NewInt(3), datum.NewFloat(0.5), datum.NewString("west"), datum.NewInt(2)}

// placeholders counts the Param leaves of every expression in the plan.
func placeholders(n Node) int {
	count := 0
	Walk(n, func(x Node) {
		Map(nil, x, func(in Node) Node { return in }, func(e sqlparse.Expr) sqlparse.Expr {
			sqlparse.WalkExprs(e, func(y sqlparse.Expr) {
				if _, ok := y.(*sqlparse.Param); ok {
					count++
				}
			})
			return e
		})
	})
	return count
}

// TestBindIntoWarmArenaAllocatesNothing: binding into a warm arena draws
// every copied node, expression list and literal from the arena.
func TestBindIntoWarmArenaAllocatesNothing(t *testing.T) {
	tmpl := bindTemplate(t, paramTestCatalog(t))
	if n := placeholders(tmpl); n != 5 {
		t.Fatalf("template holds %d placeholders, want 5:\n%s", n, Explain(tmpl))
	}
	ar := sqlparse.NewArena()
	var bound Node
	var err error
	bind := func() {
		ar.Reset()
		bound, err = BindParamsIn(ar, tmpl, bindValues)
	}
	bind()
	if a := testing.AllocsPerRun(100, bind); a != 0 {
		t.Errorf("binding into a warm arena allocates %.1f per run, want 0", a)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := placeholders(bound); n != 0 {
		t.Errorf("bound plan keeps %d placeholders:\n%s", n, Explain(bound))
	}
	if placeholders(tmpl) != 5 {
		t.Error("binding wrote into the template")
	}
}

func BenchmarkBindParams(b *testing.B) {
	g := paramTestCatalog(b)
	for _, bc := range []struct {
		name string
		tmpl Node
	}{
		{"point", mustBuild(b, g, "SELECT name, region FROM crm.customers WHERE id = $1")},
		{"project-aggregate-sort", bindTemplate(b, g)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ar := sqlparse.NewArena()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				if _, err := BindParamsIn(ar, bc.tmpl, bindValues); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

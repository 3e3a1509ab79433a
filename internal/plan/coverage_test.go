package plan

import (
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/sqlparse"
)

func TestNodeDescribeStrings(t *testing.T) {
	s := &Scan{Source: "src", Table: "t", Alias: "a"}
	f := &Filter{Input: s}
	cond, _ := sqlparse.ParseExpr("a.x = 1")
	f.Cond = cond
	j := NewJoin(nil, sqlparse.JoinLeft, s, s, cond)
	cross := NewJoin(nil, sqlparse.JoinInner, s, s, nil)
	agg := NewAggregate(nil, s, nil, []AggSpec{{Func: "COUNT", Star: true}})
	gagg := NewAggregate(nil, s, []sqlparse.Expr{cond}, []AggSpec{{Func: "MAX", Arg: cond}})
	sort := &Sort{Input: s, Keys: []SortKey{{Expr: cond, Desc: true}}}
	lim := &Limit{Input: s, Count: 5, Offset: 2}
	dis := &Distinct{Input: s}
	uni := &Union{Inputs: []Node{s, s}}
	rem := &Remote{Source: "src", Child: s}

	checks := map[Node]string{
		s:     "Scan src.t AS a",
		f:     "Filter",
		j:     "LEFT JOIN",
		cross: "CROSS",
		agg:   "Aggregate COUNT(*)",
		gagg:  "Aggregate BY",
		sort:  "DESC",
		lim:   "Limit 5 OFFSET 2",
		dis:   "Distinct",
		uni:   "UnionAll (2 inputs)",
		rem:   "Remote @src",
	}
	for n, want := range checks {
		if got := n.Describe(); !strings.Contains(got, want) {
			t.Errorf("Describe() = %q, want contains %q", got, want)
		}
	}
}

func TestMapInputsPreservesFields(t *testing.T) {
	s1 := &Scan{Source: "src", Table: "t", Alias: "a", Cols: []ColMeta{{Table: "a", Name: "x"}}}
	s2 := &Scan{Source: "src", Table: "u", Alias: "b", Cols: []ColMeta{{Table: "b", Name: "y"}}}
	cond, _ := sqlparse.ParseExpr("1 = 1")
	swap := func(n Node) Node {
		if n == s1 {
			return s2
		}
		return n
	}

	j := NewJoin(nil, sqlparse.JoinLeft, s1, s1, cond)
	j.SemiJoin = SemiJoinReduceRight
	j.Parallel = 3
	j2 := MapInputs(nil, j, swap).(*Join)
	if j2 == j || j2.Type != sqlparse.JoinLeft || j2.SemiJoin != SemiJoinReduceRight || j2.Parallel != 3 || j2.Cond != cond {
		t.Error("join MapInputs dropped fields")
	}
	if j2.Left != s2 || j2.Right != s2 || len(j2.Columns()) != 2 || j2.Columns()[0].Name != "y" {
		t.Errorf("join MapInputs did not recompute columns: %+v", j2.Columns())
	}
	if j.Left != s1 || j.Columns()[0].Name != "x" {
		t.Error("join MapInputs wrote into its input node")
	}
	agg := NewAggregate(nil, s1, nil, []AggSpec{{Func: "COUNT", Star: true}})
	agg.Parallel = 2
	if a2 := MapInputs(nil, agg, swap).(*Aggregate); a2.Input != s2 || a2.Parallel != 2 || len(a2.Columns()) != 1 {
		t.Error("aggregate MapInputs dropped fields")
	}
	r := &Remote{Source: "src", Child: s1, AllowKeyFilter: true}
	if r2 := MapInputs(nil, r, swap).(*Remote); !r2.AllowKeyFilter || r2.Source != "src" || r2.Child != s2 {
		t.Error("remote MapInputs dropped fields")
	}
	lim := &Limit{Input: s1, Count: 3, Offset: 1}
	if lim2 := MapInputs(nil, lim, swap).(*Limit); lim2.Count != 3 || lim2.Offset != 1 || lim2.Input != s2 {
		t.Error("limit MapInputs dropped fields")
	}
	f := &Filter{Input: s1, Cond: cond, Parallel: 4}
	if f2 := MapInputs(nil, f, swap).(*Filter); f2.Cond != cond || f2.Parallel != 4 || f2.Input != s2 {
		t.Error("filter MapInputs dropped fields")
	}
	u := &Union{Inputs: []Node{s2, s1, s2}}
	u2 := MapInputs(nil, u, swap).(*Union)
	if len(u2.Inputs) != 3 || u2.Inputs[0] != s2 || u2.Inputs[1] != s2 || u2.Inputs[2] != s2 || u.Inputs[1] != s1 {
		t.Errorf("union MapInputs = %v (input %v)", u2.Inputs, u.Inputs)
	}

	// An unchanged node comes back as itself, and a leaf has no inputs.
	for _, n := range []Node{j, agg, r, lim, f, &Union{Inputs: []Node{s2, s2}}, s1} {
		if MapInputs(nil, n, func(in Node) Node { return in }) != n {
			t.Errorf("%T: identity MapInputs copied the node", n)
		}
	}
	calls := 0
	MapInputs(nil, s1, func(in Node) Node { calls++; return in })
	if calls != 0 {
		t.Errorf("Scan has %d inputs, want 0", calls)
	}
}

// TestIdentityTraversalsAllocateNothing pins the copy-on-change protocol:
// a Walk, and a Transform that changes nothing, allocate nothing and
// hand back the tree they were given.
func TestIdentityTraversalsAllocateNothing(t *testing.T) {
	g := testCatalog(t)
	root := build(t, g, `SELECT name, SUM(amount) AS total FROM customer360
		WHERE id > 3 GROUP BY name ORDER BY total DESC LIMIT 5`)
	nodes := 0
	walk := func() {
		nodes = 0
		Walk(root, func(Node) { nodes++ })
	}
	if a := testing.AllocsPerRun(100, walk); a != 0 {
		t.Errorf("Walk allocates %.1f per run, want 0", a)
	}
	if nodes < 8 {
		t.Fatalf("walk visited %d nodes; the plan is smaller than the test assumes", nodes)
	}
	var out Node
	identity := func() { out = Transform(nil, root, func(n Node) Node { return n }) }
	if a := testing.AllocsPerRun(100, identity); a != 0 {
		t.Errorf("identity Transform allocates %.1f per run, want 0", a)
	}
	if out != root {
		t.Error("identity Transform did not return the root it was given")
	}
}

// TestIdentityExprTraversalsAllocateNothing is the same pin for the
// expression tree's protocol, sqlparse.MapChildren: a WalkExprs, and a
// RewriteIn that changes nothing, allocate nothing, and the rewrite hands
// back the expression it was given.
func TestIdentityExprTraversalsAllocateNothing(t *testing.T) {
	e, err := sqlparse.ParseExpr("CASE WHEN a.x BETWEEN 1 AND 3 THEN UPPER(b) ELSE CAST(c AS FLOAT) END IN (1, 2, d) OR NOT (e IS NULL) AND f LIKE 'x%'")
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	walk := func() {
		nodes = 0
		sqlparse.WalkExprs(e, func(sqlparse.Expr) { nodes++ })
	}
	if a := testing.AllocsPerRun(100, walk); a != 0 {
		t.Errorf("WalkExprs allocates %.1f per run, want 0", a)
	}
	if nodes < 15 {
		t.Fatalf("walk visited %d nodes; the expression is smaller than the test assumes", nodes)
	}
	ar := sqlparse.NewArena()
	var out sqlparse.Expr
	identity := func() {
		out, _ = sqlparse.RewriteIn(ar, e, func(x sqlparse.Expr) (sqlparse.Expr, error) { return x, nil })
	}
	if a := testing.AllocsPerRun(100, identity); a != 0 {
		t.Errorf("identity RewriteIn allocates %.1f per run, want 0", a)
	}
	if out != e {
		t.Error("identity RewriteIn did not return the expression it was given")
	}
}

func TestColMetaQualifiedName(t *testing.T) {
	if (ColMeta{Table: "t", Name: "c"}).QualifiedName() != "t.c" {
		t.Error("qualified")
	}
	if (ColMeta{Name: "c"}).QualifiedName() != "c" {
		t.Error("unqualified")
	}
}

func TestAggSpecSQL(t *testing.T) {
	arg, _ := sqlparse.ParseExpr("x")
	cases := map[string]AggSpec{
		"COUNT(*)":          {Func: "COUNT", Star: true},
		"SUM(x)":            {Func: "SUM", Arg: arg},
		"COUNT(DISTINCT x)": {Func: "COUNT", Arg: arg, Distinct: true},
	}
	for want, sp := range cases {
		if got := sp.SQL(); got != want {
			t.Errorf("AggSpec.SQL() = %q, want %q", got, want)
		}
	}
}

func TestSemiJoinHintZeroValue(t *testing.T) {
	s := &Scan{Source: "s", Table: "t", Alias: "t"}
	j := NewJoin(nil, sqlparse.JoinInner, s, s, nil)
	if j.SemiJoin != SemiJoinNone {
		t.Error("new joins must default to no semi-join hint")
	}
}

func TestAggregateOutputKinds(t *testing.T) {
	s := &Scan{Source: "src", Table: "t", Alias: "t", Cols: []ColMeta{
		{Table: "t", Name: "g", Kind: datum.KindString},
		{Table: "t", Name: "v", Kind: datum.KindFloat},
	}}
	g, _ := sqlparse.ParseExpr("g")
	v, _ := sqlparse.ParseExpr("v")
	agg := NewAggregate(nil, s, []sqlparse.Expr{g}, []AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "SUM", Arg: v},
	})
	cols := agg.Columns()
	if cols[0].Kind != datum.KindString {
		t.Errorf("group col kind = %v", cols[0].Kind)
	}
	if cols[1].Kind != datum.KindInt {
		t.Errorf("count kind = %v", cols[1].Kind)
	}
	if cols[2].Kind != datum.KindFloat {
		t.Errorf("sum kind = %v", cols[2].Kind)
	}
}

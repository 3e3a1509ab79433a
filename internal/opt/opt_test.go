package opt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// fakeEnv supplies capabilities, links and stats for optimizer tests.
type fakeEnv struct {
	caps  map[string]federation.Caps
	links map[string]*netsim.Link
	stats map[string]*schema.TableStats // "source.table"
}

func (f *fakeEnv) Caps(source string) federation.Caps {
	if c, ok := f.caps[source]; ok {
		return c
	}
	return federation.FullSQL()
}

func (f *fakeEnv) Link(source string) *netsim.Link {
	if l, ok := f.links[source]; ok {
		return l
	}
	return netsim.LocalLink()
}

func (f *fakeEnv) Stats(source, table string) *schema.TableStats {
	return f.stats[source+"."+table]
}

func env() *fakeEnv {
	return &fakeEnv{
		caps:  map[string]federation.Caps{},
		links: map[string]*netsim.Link{},
		stats: map[string]*schema.TableStats{},
	}
}

func scan(source, table string, cols ...string) *plan.Scan {
	cm := make([]plan.ColMeta, len(cols))
	for i, c := range cols {
		cm[i] = plan.ColMeta{Table: table, Name: c, Kind: datum.KindInt}
	}
	return &plan.Scan{Source: source, Table: table, Alias: table, Cols: cm}
}

func expr(t *testing.T, s string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(s)
	if err != nil {
		t.Fatalf("expr %q: %v", s, err)
	}
	return e
}

func TestPushFilterThroughProject(t *testing.T) {
	s := scan("src", "t", "a", "b")
	proj := &plan.Project{
		Input: s,
		Exprs: []sqlparse.Expr{expr(t, "a + 1"), expr(t, "b")},
		Cols:  []plan.ColMeta{{Name: "x"}, {Name: "y"}},
	}
	f := &plan.Filter{Input: proj, Cond: expr(t, "y = 5")}
	out := pushFilters(nil, f)
	// Filter must now sit below the project, rewritten to b = 5.
	p, ok := out.(*plan.Project)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	inner, ok := p.Input.(*plan.Filter)
	if !ok {
		t.Fatalf("project input = %T", p.Input)
	}
	if inner.Cond.SQL() != "(b = 5)" {
		t.Errorf("pushed cond = %s", inner.Cond.SQL())
	}
}

func TestPushFilterThroughInnerJoinBothSides(t *testing.T) {
	l := scan("s1", "l", "a")
	r := scan("s2", "r", "b")
	j := plan.NewJoin(nil, sqlparse.JoinInner, l, r, expr(t, "l.a = r.b"))
	f := &plan.Filter{Input: j, Cond: expr(t, "l.a > 1 AND r.b < 9")}
	out := pushFilters(nil, f)
	j2, ok := out.(*plan.Join)
	if !ok {
		t.Fatalf("top = %T: %s", out, plan.Explain(out))
	}
	if _, ok := j2.Left.(*plan.Filter); !ok {
		t.Error("left filter not pushed")
	}
	if _, ok := j2.Right.(*plan.Filter); !ok {
		t.Error("right filter not pushed")
	}
}

func TestPushFilterLeftJoinSafety(t *testing.T) {
	l := scan("s1", "l", "a")
	r := scan("s2", "r", "b")
	j := plan.NewJoin(nil, sqlparse.JoinLeft, l, r, expr(t, "l.a = r.b"))
	// A right-side predicate above a LEFT JOIN must NOT descend.
	f := &plan.Filter{Input: j, Cond: expr(t, "r.b < 9")}
	out := pushFilters(nil, f)
	if _, ok := out.(*plan.Filter); !ok {
		t.Fatalf("right-side predicate must stay above LEFT JOIN:\n%s", plan.Explain(out))
	}
	// A left-side predicate may descend.
	f2 := &plan.Filter{Input: j, Cond: expr(t, "l.a > 1")}
	out2 := pushFilters(nil, f2)
	j2, ok := out2.(*plan.Join)
	if !ok {
		t.Fatalf("left-side predicate should descend:\n%s", plan.Explain(out2))
	}
	if _, ok := j2.Left.(*plan.Filter); !ok {
		t.Error("left-side predicate not pushed into left child")
	}
}

func TestPushFilterThroughAggregateOnGroupKeys(t *testing.T) {
	s := scan("src", "t", "g", "v")
	agg := plan.NewAggregate(nil, s, []sqlparse.Expr{expr(t, "g")},
		[]plan.AggSpec{{Func: "SUM", Arg: expr(t, "v")}})
	// Aggregate output columns are named by rendered SQL: "g", "SUM(v)".
	f := &plan.Filter{Input: agg, Cond: expr(t, "g = 3")}
	out := pushFilters(nil, f)
	a2, ok := out.(*plan.Aggregate)
	if !ok {
		t.Fatalf("group-key filter must descend below aggregate:\n%s", plan.Explain(out))
	}
	if _, ok := a2.Input.(*plan.Filter); !ok {
		t.Error("filter not on aggregate input")
	}
}

func TestFilterOnAggregateOutputStaysAbove(t *testing.T) {
	s := scan("src", "t", "g", "v")
	agg := plan.NewAggregate(nil, s, []sqlparse.Expr{expr(t, "g")},
		[]plan.AggSpec{{Func: "SUM", Arg: expr(t, "v")}})
	cond, err := sqlparse.ParseExpr(`"SUM(v)" > 10`)
	if err != nil {
		t.Fatal(err)
	}
	f := &plan.Filter{Input: agg, Cond: cond}
	out := pushFilters(nil, f)
	if _, ok := out.(*plan.Filter); !ok {
		t.Fatalf("HAVING-style filter must stay above aggregate:\n%s", plan.Explain(out))
	}
}

func TestMergeProjects(t *testing.T) {
	s := scan("src", "t", "a")
	inner := &plan.Project{
		Input: s,
		Exprs: []sqlparse.Expr{expr(t, "a + 1")},
		Cols:  []plan.ColMeta{{Name: "x"}},
	}
	outer := &plan.Project{
		Input: inner,
		Exprs: []sqlparse.Expr{expr(t, "x * 2")},
		Cols:  []plan.ColMeta{{Name: "y"}},
	}
	out := mergeProjects(nil, outer)
	p, ok := out.(*plan.Project)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := p.Input.(*plan.Scan); !ok {
		t.Fatalf("projects not merged:\n%s", plan.Explain(out))
	}
	if p.Exprs[0].SQL() != "((a + 1) * 2)" {
		t.Errorf("merged expr = %s", p.Exprs[0].SQL())
	}
}

func TestPruneInsertsNarrowProjection(t *testing.T) {
	s := scan("src", "t", "a", "b", "c", "d")
	proj := &plan.Project{
		Input: s,
		Exprs: []sqlparse.Expr{expr(t, "a")},
		Cols:  []plan.ColMeta{{Name: "a"}},
	}
	out := pruneColumns(nil, proj)
	// Below the outer project there must be a projection keeping just a.
	found := false
	plan.Walk(out, func(n plan.Node) {
		if p, ok := n.(*plan.Project); ok {
			if _, ok := p.Input.(*plan.Scan); ok && len(p.Cols) == 1 {
				found = true
			}
		}
	})
	if !found {
		t.Errorf("scan not narrowed:\n%s", plan.Explain(out))
	}
}

func TestPlaceRemotesSingleSource(t *testing.T) {
	ev := env()
	s := scan("src", "t", "a")
	f := &plan.Filter{Input: s, Cond: expr(t, "a = 1")}
	out := placeRemotes(nil, f, ev, Options{})
	r, ok := out.(*plan.Remote)
	if !ok {
		t.Fatalf("single-source plan must be fully remote:\n%s", plan.Explain(out))
	}
	if _, ok := r.Child.(*plan.Filter); !ok {
		t.Error("filter not inside remote")
	}
}

func TestPlaceRemotesCapabilityClamp(t *testing.T) {
	ev := env()
	ev.caps["kv"] = federation.ScanOnly()
	s := scan("kv", "t", "a")
	f := &plan.Filter{Input: s, Cond: expr(t, "a = 1")}
	out := placeRemotes(nil, f, ev, Options{})
	top, ok := out.(*plan.Filter)
	if !ok {
		t.Fatalf("filter must stay at mediator for scan-only source:\n%s", plan.Explain(out))
	}
	if _, ok := top.Input.(*plan.Remote); !ok {
		t.Error("scan must still be wrapped in Remote")
	}
}

func TestPlaceRemotesCrossSourceJoin(t *testing.T) {
	ev := env()
	j := plan.NewJoin(nil, sqlparse.JoinInner, scan("s1", "l", "a"), scan("s2", "r", "b"), expr(t, "l.a = r.b"))
	out := placeRemotes(nil, j, ev, Options{})
	j2, ok := out.(*plan.Join)
	if !ok {
		t.Fatalf("cross-source join must execute at mediator:\n%s", plan.Explain(out))
	}
	if _, ok := j2.Left.(*plan.Remote); !ok {
		t.Error("left side must be remote")
	}
	if _, ok := j2.Right.(*plan.Remote); !ok {
		t.Error("right side must be remote")
	}
}

func TestNaiveShipsWholeTables(t *testing.T) {
	s := scan("src", "t", "a")
	f := &plan.Filter{Input: s, Cond: expr(t, "a = 1")}
	out := Naive(f)
	top, ok := out.(*plan.Filter)
	if !ok {
		t.Fatalf("naive plan shape:\n%s", plan.Explain(out))
	}
	r, ok := top.Input.(*plan.Remote)
	if !ok {
		t.Fatal("naive scan must be remote")
	}
	if _, ok := r.Child.(*plan.Scan); !ok {
		t.Error("naive remote must contain a bare scan")
	}
}

func TestJoinReorderPrefersSelectiveSide(t *testing.T) {
	ev := env()
	big := schema.MustTable("big", []schema.Column{{Name: "k", Kind: datum.KindInt}})
	small := schema.MustTable("small", []schema.Column{{Name: "k", Kind: datum.KindInt}})
	ev.stats["src.big"] = schema.DefaultStats(big, 100000)
	ev.stats["src.small"] = schema.DefaultStats(small, 10)

	j := plan.NewJoin(nil, sqlparse.JoinInner,
		scan("src", "big", "k"),
		scan("src", "small", "k"),
		expr(t, "big.k = small.k"))
	out := reorderJoins(nil, j, newEstimator(ev))
	j2, ok := out.(*plan.Join)
	if !ok {
		t.Fatalf("reorder output = %T", out)
	}
	// The executor builds its hash table on the right input, so the
	// optimizer must put the small relation there — independent of the
	// order the query was written in.
	rightScan := findScan(j2.Right)
	if rightScan == nil || rightScan.Table != "small" {
		t.Errorf("small table not on build side:\n%s", plan.Explain(out))
	}
	flipped := plan.NewJoin(nil, sqlparse.JoinInner,
		scan("src", "small", "k"),
		scan("src", "big", "k"),
		expr(t, "big.k = small.k"))
	out2 := reorderJoins(nil, flipped, newEstimator(ev))
	j3, ok := out2.(*plan.Join)
	if !ok {
		t.Fatalf("reorder output = %T", out2)
	}
	if rs := findScan(j3.Right); rs == nil || rs.Table != "small" {
		t.Errorf("written order changed the plan:\n%s", plan.Explain(out2))
	}
}

func findScan(n plan.Node) *plan.Scan {
	var out *plan.Scan
	plan.Walk(n, func(x plan.Node) {
		if s, ok := x.(*plan.Scan); ok && out == nil {
			out = s
		}
	})
	return out
}

func TestEstimatorSelectivities(t *testing.T) {
	ev := env()
	tab := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "cat", Kind: datum.KindString},
	})
	st := schema.DefaultStats(tab, 1000)
	st.Cols[0].Distinct = 1000
	st.Cols[1].Distinct = 4
	ev.stats["src.t"] = st
	est := newEstimator(ev)

	s := &plan.Scan{Source: "src", Table: "t", Alias: "t", Cols: []plan.ColMeta{
		{Table: "t", Name: "id", Kind: datum.KindInt},
		{Table: "t", Name: "cat", Kind: datum.KindString},
	}}
	if got := est.Rows(s); got != 1000 {
		t.Errorf("scan rows = %v", got)
	}
	eq := &plan.Filter{Input: s, Cond: expr(t, "id = 5")}
	if got := est.Rows(eq); got != 1 {
		t.Errorf("unique eq rows = %v", got)
	}
	cat := &plan.Filter{Input: s, Cond: expr(t, "cat = 'x'")}
	if got := est.Rows(cat); got != 250 {
		t.Errorf("cat eq rows = %v", got)
	}
	rng := &plan.Filter{Input: s, Cond: expr(t, "id > 10")}
	if got := est.Rows(rng); got < 300 || got > 400 {
		t.Errorf("range rows = %v", got)
	}
	lim := &plan.Limit{Input: s, Count: 7}
	if got := est.Rows(lim); got != 7 {
		t.Errorf("limit rows = %v", got)
	}
}

func TestCostChargesNetworkAtRemoteBoundary(t *testing.T) {
	ev := env()
	ev.links["src"] = netsim.NewLink(10*time.Millisecond, 1e6, 1)
	tab := schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}})
	ev.stats["src.t"] = schema.DefaultStats(tab, 10000)

	s := scan("src", "t", "a")
	naive := &plan.Filter{Input: &plan.Remote{Source: "src", Child: s}, Cond: expr(t, "a = 1")}
	pushed := &plan.Remote{Source: "src", Child: &plan.Filter{Input: s, Cond: expr(t, "a = 1")}}

	cNaive := Cost(naive, ev)
	cPushed := Cost(pushed, ev)
	if cPushed.Shipped >= cNaive.Shipped {
		t.Errorf("pushed shipped %d >= naive %d", cPushed.Shipped, cNaive.Shipped)
	}
	if cPushed.Total() >= cNaive.Total() {
		t.Errorf("pushed total %v >= naive %v", cPushed.Total(), cNaive.Total())
	}
	if cNaive.Network <= 10*time.Millisecond {
		t.Errorf("network cost must include latency+transfer, got %v", cNaive.Network)
	}
}

func TestOptimizeEndToEndShape(t *testing.T) {
	ev := env()
	ev.caps["files"] = federation.FilterOnly()
	l := scan("crm", "customers", "id", "region")
	r := scan("files", "tickets", "cust_id", "sev")
	j := plan.NewJoin(nil, sqlparse.JoinInner, l, r, expr(t, "customers.id = tickets.cust_id"))
	f := &plan.Filter{Input: j, Cond: expr(t, "customers.region = 1 AND tickets.sev > 2")}
	proj := &plan.Project{
		Input: f,
		Exprs: []sqlparse.Expr{expr(t, "customers.id")},
		Cols:  []plan.ColMeta{{Name: "id"}},
	}
	out := Optimize(proj, ev, Options{})
	// Both filters must be below the join; the files filter must be
	// inside its Remote (filter-only caps allow it).
	txt := plan.Explain(out)
	if !strings.Contains(txt, "Remote @crm") || !strings.Contains(txt, "Remote @files") {
		t.Errorf("missing remotes:\n%s", txt)
	}
	filterAtTop := false
	if _, ok := out.(*plan.Filter); ok {
		filterAtTop = true
	}
	if filterAtTop {
		t.Errorf("filters should be pushed down:\n%s", txt)
	}
}

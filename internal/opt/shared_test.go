package opt

import (
	"reflect"
	"testing"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// nodeValues records a shallow copy of every node in the tree, by
// identity.
func nodeValues(root plan.Node) map[plan.Node]any {
	vals := map[plan.Node]any{}
	plan.Walk(root, func(n plan.Node) { vals[n] = reflect.ValueOf(n).Elem().Interface() })
	return vals
}

// assertUntouched fails for every recorded node whose fields changed.
func assertUntouched(t *testing.T, vals map[plan.Node]any) {
	t.Helper()
	for n, v := range vals {
		if !reflect.DeepEqual(reflect.ValueOf(n).Elem().Interface(), v) {
			t.Errorf("%s: a pass wrote into a node it did not allocate", n.Describe())
		}
	}
}

// TestOptimizeWritesOnlyNodesItAllocates pins the invariant that keeps a
// shared plan safe to re-optimize: passes rebuild only what they change,
// so Optimize's result shares unchanged nodes with its input, and no
// pass may write into one. Parallelism hints are set on copies. A
// fragment reaching a peer's RunFragment is exactly such an input: its
// nodes belong to the coordinator's cached template.
func TestOptimizeWritesOnlyNodesItAllocates(t *testing.T) {
	ev := env()
	for _, name := range []string{"a", "b"} {
		tab := schema.MustTable(name, []schema.Column{{Name: "k", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindInt}})
		ev.stats[name+"."+name] = schema.DefaultStats(tab, 40000)
	}
	cond := expr(t, "a.k = b.k")
	sum := []plan.AggSpec{{Func: "SUM", Arg: expr(t, "a.v")}}

	t.Run("placed input", func(t *testing.T) {
		// Mediator operators over already-placed Remotes: placement
		// keeps them as they are, and only the hints and the estimates
		// the last pass records change.
		join := plan.NewJoin(nil, sqlparse.JoinInner,
			&plan.Remote{Source: "a", Child: scan("a", "a", "k", "v")},
			&plan.Remote{Source: "b", Child: scan("b", "b", "k", "v")}, cond)
		root := plan.NewAggregate(nil, join, []sqlparse.Expr{expr(t, "a.k")}, sum)
		vals := nodeValues(root)
		out := Optimize(root, ev, Options{NoFilterPushdown: true, NoJoinReorder: true, NoProjectionPrune: true, NoSemiJoin: true})
		assertUntouched(t, vals)
		agg, ok := out.(*plan.Aggregate)
		if !ok || agg == root {
			t.Fatalf("optimized root = %T (same node: %v), want an annotated copy", out, out == plan.Node(root))
		}
		j, ok := agg.Input.(*plan.Join)
		if !ok || j == join {
			t.Fatalf("optimized join = %T (same node: %v), want an annotated copy", agg.Input, agg.Input == plan.Node(join))
		}
		if agg.Parallel < 2 || j.Parallel < 2 {
			t.Errorf("hints aggregate=%d join=%d, want both >= 2 over 40000-row inputs", agg.Parallel, j.Parallel)
		}
		// The Remotes and their scans carried no estimate: each is copied
		// to record one.
		for i, in := range []plan.Node{j.Left, j.Right} {
			orig := []plan.Node{join.Left, join.Right}[i].(*plan.Remote)
			if r := in.(*plan.Remote); r == orig || r.EstRows() < 0 || r.Child.EstRows() < 0 {
				t.Errorf("Remote input %d: want an annotated copy, got %+v", i, r)
			}
		}
		// Over its own result, Optimize copies no Remote again.
		again := Optimize(out, ev, Options{NoFilterPushdown: true, NoJoinReorder: true, NoProjectionPrune: true, NoSemiJoin: true})
		if aj := again.(*plan.Aggregate).Input.(*plan.Join); aj.Left != j.Left || aj.Right != j.Right {
			t.Error("the unchanged, annotated Remote inputs were copied")
		}
	})

	t.Run("logical input", func(t *testing.T) {
		join := plan.NewJoin(nil, sqlparse.JoinInner, scan("a", "a", "k", "v"), scan("b", "b", "k", "v"), cond)
		filter := &plan.Filter{Input: join, Cond: expr(t, "a.v > 3")}
		root := &plan.Limit{Input: plan.NewAggregate(nil, filter, []sqlparse.Expr{expr(t, "a.k")}, sum), Count: 10}
		vals := nodeValues(root)
		for _, opts := range []Options{{}, {NoRemotePushdown: true}, {NoFilterPushdown: true, NoJoinReorder: true}} {
			Optimize(root, ev, opts)
			assertUntouched(t, vals)
		}
	})
}

// TestUnchangedPlanComesBackItself pins copy-on-change in the passes every
// plan-cache miss runs. Over a plan they leave as it is — no column to
// drop, no filter off its floor, no Project over a Project —
// pruneColumns, pushFilters and mergeProjects each return the root they
// were given and allocate nothing. A Join copied over inputs whose column
// lists did not change shares its own, capped, so an append to either
// join's columns cannot write into the other's. And over a plan no
// operator of which fills two workers, annotateParallelism leaves every
// hint at the builder's 0, so it too returns the root it was given and
// allocates nothing.
func TestUnchangedPlanComesBackItself(t *testing.T) {
	join := plan.NewJoin(nil, sqlparse.JoinInner,
		&plan.Filter{Input: scan("a", "a", "k", "v"), Cond: expr(t, "a.v > 3")},
		scan("b", "b", "k", "w"), expr(t, "a.k = b.k"))
	agg := plan.NewAggregate(nil, join, []sqlparse.Expr{expr(t, "a.v")}, []plan.AggSpec{{Func: "SUM", Arg: expr(t, "b.w")}})
	proj := &plan.Project{Input: agg,
		Exprs: []sqlparse.Expr{&sqlparse.ColumnRef{Column: agg.Columns()[0].Name}, &sqlparse.ColumnRef{Column: agg.Columns()[1].Name}},
		Cols:  []plan.ColMeta{{Name: "v"}, {Name: "total"}}}
	root := &plan.Limit{Input: &plan.Sort{Input: proj, Keys: []plan.SortKey{{Expr: expr(t, "total")}}}, Count: 10}
	for _, pass := range []struct {
		name string
		run  func(plan.Node) plan.Node
	}{
		{"pruneColumns", func(n plan.Node) plan.Node { return pruneColumns(nil, n) }},
		{"pushFilters", func(n plan.Node) plan.Node { return pushFilters(nil, n) }},
		{"mergeProjects", func(n plan.Node) plan.Node { return mergeProjects(nil, n) }},
	} {
		if out := pass.run(root); out != plan.Node(root) {
			t.Errorf("%s rebuilt a plan it leaves unchanged:\n%s", pass.name, plan.Explain(out))
		}
		if a := testing.AllocsPerRun(100, func() { pass.run(root) }); a != 0 {
			t.Errorf("%s allocates %v objects over a plan it leaves unchanged, want 0", pass.name, a)
		}
	}

	// Sequential throughout: small inputs, and no Aggregate whose group
	// estimate the pass would record.
	ev := env()
	for name, cols := range map[string][]string{"a": {"k", "v"}, "b": {"k", "w"}} {
		tab := schema.MustTable(name, []schema.Column{{Name: cols[0], Kind: datum.KindInt}, {Name: cols[1], Kind: datum.KindInt}})
		ev.stats[name+"."+name] = schema.DefaultStats(tab, 100)
	}
	est := newEstimator(ev)
	defer est.release()
	seq := &plan.Limit{Count: 10, Input: &plan.Sort{Keys: []plan.SortKey{{Expr: expr(t, "v")}},
		Input: &plan.Project{Input: join, Exprs: []sqlparse.Expr{expr(t, "a.v")}, Cols: []plan.ColMeta{{Name: "v"}}}}}
	if out := annotateParallelism(nil, seq, est); out != plan.Node(seq) {
		t.Errorf("annotateParallelism rebuilt a sequential plan:\n%s", plan.Explain(out))
	}
	if a := testing.AllocsPerRun(100, func() { annotateParallelism(nil, seq, est) }); a != 0 {
		t.Errorf("annotateParallelism allocates %v objects over a sequential plan, want 0", a)
	}

	// A new left input with the old one's column list: the copy shares
	// the join's columns.
	left := &plan.Filter{Input: join.Left.(*plan.Filter).Input, Cond: expr(t, "a.v > 4")}
	cp := plan.MapInputs(nil, join, func(in plan.Node) plan.Node {
		if in == join.Left {
			return left
		}
		return in
	}).(*plan.Join)
	cols, orig := cp.Columns(), join.Columns()
	if len(cols) != len(orig) || &cols[0] != &orig[0] {
		t.Fatal("a join copied over inputs with unchanged columns built a new column list")
	}
	if cap(cols) != len(cols) || cap(orig) != len(orig) {
		t.Fatalf("shared column lists have capacity %d and %d past their length %d", cap(cols), cap(orig), len(cols))
	}
	grown := append(cp.Columns(), plan.ColMeta{Name: "copy"})
	_ = append(join.Columns(), plan.ColMeta{Name: "original"})
	if grown[len(cols)].Name != "copy" || len(join.Columns()) != 4 {
		t.Error("appending to the original join's columns wrote into the copy's")
	}

	// A narrowed input changes the column list: the copy builds its own.
	narrowed := narrow(nil, join.Right, []bool{true, false})
	cp = plan.MapInputs(nil, join, func(in plan.Node) plan.Node {
		if in == join.Right {
			return narrowed
		}
		return in
	}).(*plan.Join)
	if got := len(cp.Columns()); got != 3 || len(join.Columns()) != 4 {
		t.Errorf("join over a narrowed input has %d columns (original %d), want 3 (4)", got, len(join.Columns()))
	}
}

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
		// keeps them as they are, and only the hints change.
		join := plan.NewJoin(sqlparse.JoinInner,
			&plan.Remote{Source: "a", Child: scan("a", "a", "k", "v")},
			&plan.Remote{Source: "b", Child: scan("b", "b", "k", "v")}, cond)
		root := plan.NewAggregate(join, []sqlparse.Expr{expr(t, "a.k")}, sum)
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
		if j.Left != join.Left || j.Right != join.Right {
			t.Error("the unchanged Remote inputs were copied")
		}
	})

	t.Run("logical input", func(t *testing.T) {
		join := plan.NewJoin(sqlparse.JoinInner, scan("a", "a", "k", "v"), scan("b", "b", "k", "v"), cond)
		filter := &plan.Filter{Input: join, Cond: expr(t, "a.v > 3")}
		root := &plan.Limit{Input: plan.NewAggregate(filter, []sqlparse.Expr{expr(t, "a.k")}, sum), Count: 10}
		vals := nodeValues(root)
		for _, opts := range []Options{{}, {NoRemotePushdown: true}, {NoFilterPushdown: true, NoJoinReorder: true}} {
			Optimize(root, ev, opts)
			assertUntouched(t, vals)
		}
	})
}

package opt

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// internedEnv is a planning environment with a feedback store's stream
// records: one per stream, made the first time it is asked for.
type internedEnv struct {
	*fakeEnv
	streams map[feedback.Key]*plan.Stream
}

func (e internedEnv) Stream(k feedback.Shape) *plan.Stream {
	if s, ok := e.streams[feedback.Key{Source: k.Source, Table: k.Table, Sig: string(k.Sig)}]; ok {
		return s
	}
	s := k.Key()
	e.streams[s] = &s
	return &s
}

// TestAnnotatedPlanComesBackItself pins copy-on-change in the optimizer's
// last pass: over a plan that lacks them it records every node's estimate
// every Remote's stream and a hinted join's reduced fetch, on copies; over its own result, which carries them, it returns the root it
// was given and allocates nothing.
func TestAnnotatedPlanComesBackItself(t *testing.T) {
	ev := internedEnv{env(), map[feedback.Key]*plan.Stream{}}
	for name, cols := range map[string][]string{"a": {"k", "v"}, "b": {"k", "w"}} {
		tab := schema.MustTable(name, []schema.Column{{Name: cols[0], Kind: datum.KindInt}, {Name: cols[1], Kind: datum.KindInt}})
		ev.stats[name+"."+name] = schema.DefaultStats(tab, 100)
	}
	join := plan.NewJoin(nil, sqlparse.JoinInner,
		&plan.Remote{Source: "a", Child: &plan.Filter{Input: scan("a", "a", "k", "v"), Cond: expr(t, "a.v > 3")}},
		&plan.Remote{Source: "b", Child: scan("b", "b", "k", "w"), AllowKeyFilter: true},
		expr(t, "a.k = b.k"))
	join.SemiJoin = plan.SemiJoinReduceRight
	root := &plan.Limit{Input: join, Count: 10}
	vals := nodeValues(root)

	est := newEstimator(ev)
	defer est.release()
	once := annotateEstimates(nil, root, est)
	assertUntouched(t, vals)
	plan.Walk(once, func(n plan.Node) {
		if vals[n] != nil || n.EstRows() < 0 {
			t.Errorf("%s: want an annotated copy", n.Describe())
		}
		if r, ok := n.(*plan.Remote); ok && r.Stream == nil {
			t.Errorf("%s: no stream recorded", n.Describe())
		}
	})
	if red := once.(*plan.Limit).Input.(*plan.Join).Reduce; red.Keyed == nil || red.Empty == nil || red.Keyed == red.Empty || red.KeySel == 0 {
		t.Fatalf("hinted join records %+v, want the streams and terms of its reduced fetch", red)
	}
	if out := annotateEstimates(nil, once, est); out != once {
		t.Errorf("the last pass rebuilt an annotated plan:\n%s", plan.Explain(out))
	}
	if a := testing.AllocsPerRun(100, func() { annotateEstimates(nil, once, est) }); a != 0 {
		t.Errorf("the last pass allocates %v objects over an annotated plan, want 0", a)
	}
}

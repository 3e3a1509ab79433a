package opt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// TestGreedyOrderLargeJoinGraph drives the >maxDPRelations path: a 12-way
// chain join must still produce a single connected join tree covering all
// relations.
func TestGreedyOrderLargeJoinGraph(t *testing.T) {
	ev := env()
	n := 12
	var root plan.Node
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		tab := schema.MustTable(name, []schema.Column{{Name: "k", Kind: datum.KindInt}})
		ev.stats["src."+name] = schema.DefaultStats(tab, int64(10*(i+1)))
		s := scan("src", name, "k")
		if root == nil {
			root = s
			continue
		}
		cond := expr(t, fmt.Sprintf("t%d.k = t%d.k", i-1, i))
		root = plan.NewJoin(nil, sqlparse.JoinInner, root, s, cond)
	}
	out := reorderJoins(nil, root, newEstimator(ev))
	scans := 0
	joins := 0
	plan.Walk(out, func(x plan.Node) {
		switch x.(type) {
		case *plan.Scan:
			scans++
		case *plan.Join:
			joins++
		}
	})
	if scans != n {
		t.Errorf("scans = %d, want %d", scans, n)
	}
	if joins != n-1 {
		t.Errorf("joins = %d, want %d", joins, n-1)
	}
}

func TestEstimatorMiscellaneousNodes(t *testing.T) {
	ev := env()
	tab := schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}})
	ev.stats["src.t"] = schema.DefaultStats(tab, 100)
	est := newEstimator(ev)
	s := scan("src", "t", "a")

	if got := est.Rows(&plan.Distinct{Input: s}); got != 50 {
		t.Errorf("distinct rows = %v", got)
	}
	u := &plan.Union{Inputs: []plan.Node{s, s}}
	if got := est.Rows(u); got != 200 {
		t.Errorf("union rows = %v", got)
	}
	if got := est.Rows(&plan.Remote{Source: "src", Child: s}); got != 100 {
		t.Errorf("remote rows = %v", got)
	}
	dual := &plan.Scan{Source: "", Table: "", Alias: "$dual"}
	if got := est.Rows(dual); got != 1 {
		t.Errorf("dual rows = %v", got)
	}
	if est.RowWidth(u) <= 0 || est.RowWidth(dual) <= 0 {
		t.Error("row widths must be positive")
	}
	// Projection narrowing shrinks estimated width.
	wide := scan("src", "t", "a")
	narrowProj := &plan.Project{
		Input: wide,
		Exprs: []sqlparse.Expr{expr(t, "a")},
		Cols:  []plan.ColMeta{{Name: "a"}},
	}
	if est.RowWidth(narrowProj) > est.RowWidth(wide) {
		t.Error("projection must not widen rows")
	}
}

func TestSelectivityVariants(t *testing.T) {
	ev := env()
	tab := schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}})
	st := schema.DefaultStats(tab, 1000)
	st.Cols[0].Distinct = 100
	ev.stats["src.t"] = st
	est := newEstimator(ev)
	s := scan("src", "t", "a")

	cases := []struct {
		cond    string
		loBound float64
		hiBound float64
	}{
		{"a <> 5", 800, 1000},
		{"a IS NULL", 50, 150},
		{"a IS NOT NULL", 850, 950},
		{"NOT (a = 5)", 900, 1000},
		{"a = 1 OR a = 2", 15, 25},
		{"a IN (1, 2, 3)", 25, 35},
		{"a NOT IN (1, 2)", 900, 1000},
		{"a BETWEEN 1 AND 10", 300, 400},
		{"a NOT BETWEEN 1 AND 10", 600, 700},
	}
	for _, c := range cases {
		rows := est.Rows(&plan.Filter{Input: s, Cond: expr(t, c.cond)})
		if rows < c.loBound || rows > c.hiBound {
			t.Errorf("selectivity of %q: rows = %v, want in [%v, %v]", c.cond, rows, c.loBound, c.hiBound)
		}
	}
}

func TestPlanCostTotalCombinesNetworkAndCPU(t *testing.T) {
	c := PlanCost{Network: time.Second, CPURows: 1000}
	if c.Total() <= time.Second {
		t.Error("total must include CPU time")
	}
}

func TestNaiveModeDemotesPushableSubtrees(t *testing.T) {
	ev := env()
	s := scan("src", "t", "a")
	f := &plan.Filter{Input: s, Cond: expr(t, "a = 1")}
	out := Optimize(f, ev, Options{NoRemotePushdown: true, NoFilterPushdown: true})
	// The filter stays at the mediator and the scan ships whole.
	remoteScanOnly := true
	plan.Walk(out, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok {
			if _, isScan := r.Child.(*plan.Scan); !isScan {
				remoteScanOnly = false
			}
		}
	})
	if !remoteScanOnly {
		t.Errorf("naive mode must ship bare scans only:\n%s", plan.Explain(out))
	}
}

func TestDistinctOfTracesThroughNodes(t *testing.T) {
	ev := env()
	tab := schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}})
	st := schema.DefaultStats(tab, 1000)
	st.Cols[0].Distinct = 77
	ev.stats["src.t"] = st
	est := newEstimator(ev)
	s := scan("src", "t", "a")
	ref := expr(t, "a")
	// Through filter, limit, remote, project.
	chain := plan.Node(&plan.Filter{Input: s, Cond: expr(t, "a > 0")})
	chain = &plan.Limit{Input: chain, Count: 10}
	chain = &plan.Remote{Source: "src", Child: chain}
	if got := est.distinctOf(ref, chain); got != 77 {
		t.Errorf("distinct through chain = %v", got)
	}
	proj := &plan.Project{Input: s,
		Exprs: []sqlparse.Expr{expr(t, "a")},
		Cols:  []plan.ColMeta{{Name: "renamed"}}}
	if got := est.distinctOf(expr(t, "renamed"), proj); got != 77 {
		t.Errorf("distinct through project rename = %v", got)
	}
}

func TestCostWithRealLink(t *testing.T) {
	ev := env()
	ev.links["src"] = netsim.NewLink(5*time.Millisecond, 1e6, 2)
	tab := schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}})
	ev.stats["src.t"] = schema.DefaultStats(tab, 1000)
	s := scan("src", "t", "a")
	c := Cost(&plan.Remote{Source: "src", Child: s}, ev)
	if c.Network < 5*time.Millisecond {
		t.Errorf("network cost must include latency: %v", c.Network)
	}
	if c.Shipped <= 0 {
		t.Error("shipped bytes must be positive")
	}
}

package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// TestFragmentsShipOnlyWhatIsRead walks the optimized plans of the cost
// cases (every configuration), the E18 join shapes and the benchmark
// workloads' statements, and checks every Remote whose source can
// project:
//   - each column it ships is read above it — by a join key, a predicate,
//     an output, an aggregate argument or a sort key — wherever the
//     configuration both prunes and pushes down (without either, whole
//     rows ship by design);
//   - no projection that only drops columns sits directly under a Filter
//     or an Aggregate inside it: a fragment narrows once, at its root.
func TestFragmentsShipOnlyWhatIsRead(t *testing.T) {
	ctx := context.Background()
	cases := costCases(t, 12)

	cluster := "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "
	statements := []struct {
		label     string
		customers int
		sql       []string
		qo        []core.QueryOptions
	}{
		{"portal", 120, []string{workload.PortalSQL(5)}, nil},
		{"analyst", 4000, []string{workload.ReportAggSQL, workload.ReportJoinSQL, workload.FanOutSQL}, nil},
		{"cluster_semijoin", 3000, []string{
			cluster + "c.region = 'west' AND i.status = 'overdue' AND i.amount > 10",
			cluster + "c.region = 'west' AND c.segment = 'smb' AND i.status = 'overdue' AND i.amount > 10",
		}, nil},
		{"E18", 800, []string{
			cluster + "c.region = 'west' AND i.status = 'overdue'",
			"SELECT id, name, amount FROM customer360 WHERE id < 40",
		}, []core.QueryOptions{{NoSemiJoin: true}, {MaxSemiJoinKeys: 1 << 20}, {}, {Parallel: true}}},
	}
	for _, s := range statements {
		fed, err := workload.CRMOf(s.customers)
		if err != nil {
			t.Fatal(err)
		}
		qos := s.qo
		if qos == nil {
			qos = []core.QueryOptions{{}, {Parallel: true, Adaptive: true}}
		}
		for i, sql := range s.sql {
			for j, qo := range qos {
				cases = append(cases, costCase{fmt.Sprintf("%s %d/%d", s.label, i, j), fed.Engine, sql, qo})
			}
		}
	}

	for _, c := range cases {
		p, err := c.e.Plan(ctx, c.sql, c.qo)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		pruned := !c.qo.Optimizer.NoProjectionPrune && !c.qo.Optimizer.NoRemotePushdown
		for _, msg := range fragmentDefects(c.e, p, pruned) {
			t.Errorf("%s: %s\n%s", c.label, msg, plan.Explain(p))
		}
	}
}

// fragmentDefects reports the two defects TestFragmentsShipOnlyWhatIsRead
// looks for in p, the unread columns only when pruned.
func fragmentDefects(e *core.Engine, p plan.Node, pruned bool) []string {
	var out []string
	var visit func(n plan.Node, above []plan.Node)
	visit = func(n plan.Node, above []plan.Node) {
		r, ok := n.(*plan.Remote)
		if !ok {
			above = append(above[:len(above):len(above)], n)
			plan.MapInputs(nil, n, func(in plan.Node) plan.Node {
				visit(in, above)
				return in
			})
			return
		}
		if src, ok := e.Source(r.Source); !ok || !src.Capabilities().PushProject {
			return
		}
		if pruned {
			read := readAbove(r.Columns(), above)
			for i, col := range r.Columns() {
				if !read[i] {
					out = append(out, fmt.Sprintf("Remote @%s ships %s.%s, which nothing above it reads", r.Source, col.Table, col.Name))
				}
			}
		}
		plan.Walk(r.Child, func(x plan.Node) {
			switch x.(type) {
			case *plan.Filter, *plan.Aggregate:
				plan.MapInputs(nil, x, func(in plan.Node) plan.Node {
					if p, ok := in.(*plan.Project); ok && onlyDrops(p) {
						out = append(out, fmt.Sprintf("Remote @%s narrows under %s", r.Source, x.Describe()))
					}
					return in
				})
			}
		})
	}
	visit(p, nil)
	return out
}

// readAbove marks the columns of cols that the operators above read:
// every expression of every ancestor, and all of them when each ancestor
// passes its input's columns through to the result.
func readAbove(cols []plan.ColMeta, above []plan.Node) []bool {
	read := make([]bool, len(cols))
	mark := func(exprs ...sqlparse.Expr) {
		for _, e := range exprs {
			if e == nil {
				continue
			}
			sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
				if ref, ok := x.(*sqlparse.ColumnRef); ok {
					if i, ok := plan.FindColumn(cols, ref); ok {
						read[i] = true
					}
				}
			})
		}
	}
	output := true
	for _, a := range above {
		switch x := a.(type) {
		case *plan.Filter:
			mark(x.Cond)
		case *plan.Join:
			mark(x.Cond)
		case *plan.Project:
			mark(x.Exprs...)
			output = false
		case *plan.Aggregate:
			mark(x.GroupBy...)
			for _, sp := range x.Aggs {
				mark(sp.Arg)
			}
			output = false
		case *plan.Sort:
			for _, k := range x.Keys {
				mark(k.Expr)
			}
		}
	}
	if output {
		for i := range read {
			read[i] = true
		}
	}
	return read
}

// onlyDrops reports whether p's every output is one of its input's
// columns under its own name.
func onlyDrops(p *plan.Project) bool {
	in := p.Input.Columns()
	for i, e := range p.Exprs {
		ref, ok := e.(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		if at, ok := plan.FindColumn(in, ref); !ok || in[at] != p.Cols[i] {
			return false
		}
	}
	return true
}

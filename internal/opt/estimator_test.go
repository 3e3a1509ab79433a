package opt_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/feedback"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// liveEnv is an engine's adaptive planning environment seen from outside:
// its sources' capabilities, links and statistics, and its feedback store.
type liveEnv struct{ e *core.Engine }

func (v liveEnv) Caps(source string) federation.Caps {
	if src, ok := v.e.Source(source); ok {
		return src.Capabilities()
	}
	return federation.ScanOnly()
}

func (v liveEnv) Link(source string) *netsim.Link {
	if src, ok := v.e.Source(source); ok {
		return src.Link()
	}
	return nil
}

func (v liveEnv) Stats(source, table string) *schema.TableStats {
	if src, ok := v.e.Source(source); ok {
		if st, ok := src.Catalog().Stats(table); ok {
			return st
		}
	}
	return nil
}

func (v liveEnv) Observed(k feedback.Shape) (feedback.Estimate, bool) {
	return v.e.Feedback().Lookup(k)
}

// TestEstimatorMemoMatchesPlanning checks that an Estimator's memo changes
// no estimate: node by node, memoized Rows is bit-identical to what the
// optimizer's estimator derives from scratch, and the memoized signature
// is feedback.Signature's. The plans are one statement of each bench
// workload plus E20's stale-statistics join, before and after the
// feedback store has absorbed executions of them.
func TestEstimatorMemoMatchesPlanning(t *testing.T) {
	crm, err := workload.CRMOf(500)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := workload.BuildStaleStats(4000, false)
	if err != nil {
		t.Fatal(err)
	}
	// Feedback confidence decays with the engine clock's time: a stopped
	// clock keeps an estimate taken now equal to one taken a moment later.
	for _, e := range []*core.Engine{crm.Engine, stale} {
		e.SetClock(netsim.NewVirtualClock(time.Time{}))
	}
	cases := []struct {
		name   string
		engine *core.Engine
		sql    string
	}{
		{"portal_point", crm.Engine, workload.PortalSQL(5)},
		{"analyst_scan/agg", crm.Engine, workload.ReportAggSQL},
		{"analyst_scan/join", crm.Engine, workload.ReportJoinSQL},
		{"analyst_scan/fan-out", crm.Engine, workload.FanOutSQL},
		{"cluster_semijoin", crm.Engine, `SELECT c.name, i.amount FROM crm.customers c
			JOIN billing.invoices i ON c.id = i.cust_id
			WHERE c.region = 'west' AND c.segment = 'smb' AND i.status = 'overdue' AND i.amount > 10`},
		{"adhoc_churn", crm.Engine, `SELECT name, region, amount FROM customer360
			WHERE id < 9 AND region = 'west' ORDER BY amount DESC, inv_id`},
		{"E20 stale stats", stale, workload.StaleStatsSQL},
	}
	ctx := context.Background()
	qo := core.DefaultQueryOptions()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(phase string) {
				p, err := c.engine.Plan(ctx, c.sql, qo)
				if err != nil {
					t.Fatal(err)
				}
				env := liveEnv{c.engine}
				memo := opt.NewEstimator(env)
				defer memo.Release()
				var nodes []plan.Node
				plan.Walk(p, func(n plan.Node) { nodes = append(nodes, n) })
				// Bottom-up first, as operator boundaries ask, so later
				// questions are answered from the memo.
				for i := len(nodes) - 1; i >= 0; i-- {
					memo.RowsFloat(nodes[i])
				}
				for _, n := range nodes {
					got, want := memo.RowsFloat(n), opt.PlanningRows(env, n)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: %s: memoized %v rows, from scratch %v", phase, n.Describe(), got, want)
					}
					gk, gok := memo.Signature(n)
					wk, wok := feedback.Signature(n)
					if gk.Key() != wk || gok != wok {
						t.Errorf("%s: %s: memoized signature %v/%v, rendered %v/%v", phase, n.Describe(), gk.Key(), gok, wk, wok)
					}
				}
			}
			check("before feedback")
			for i := 0; i < 3; i++ {
				if _, err := c.engine.QueryOptsCtx(ctx, c.sql, qo); err != nil {
					t.Fatal(err)
				}
			}
			check("after feedback")
		})
	}
}

// TestDistinctThroughAggregate: over an Aggregate, a grouping column keeps
// its input's distinct count, capped at the aggregate's rows, so a join
// above a partial aggregate prices against the real key domain instead of
// the small-domain guess of 10. The statistics are the CRM federation's at
// 4 000 customers: 16 000 invoices over 4 000 customers and 3 statuses.
func TestDistinctThroughAggregate(t *testing.T) {
	crm, err := workload.CRMOf(4000)
	if err != nil {
		t.Fatal(err)
	}
	env := liveEnv{crm.Engine}
	cols := []plan.ColMeta{
		{Table: "i", Name: "inv_id", Kind: datum.KindInt}, {Table: "i", Name: "cust_id", Kind: datum.KindInt},
		{Table: "i", Name: "amount", Kind: datum.KindFloat}, {Table: "i", Name: "status", Kind: datum.KindString}}
	invoices := &plan.Scan{Source: "billing", Table: "invoices", Alias: "i", Cols: cols}
	in := func(c string) sqlparse.Expr { return &sqlparse.ColumnRef{Table: "i", Column: c} }
	out := func(c string) sqlparse.Expr { return &sqlparse.ColumnRef{Column: c} }
	count := []plan.AggSpec{{Func: "COUNT", Star: true}}
	byCust := plan.NewAggregate(nil, invoices, []sqlparse.Expr{in("cust_id")}, count)
	byCustStatus := plan.NewAggregate(nil, invoices, []sqlparse.Expr{in("cust_id"), in("status")}, count)
	capped := plan.NewAggregate(nil, &plan.Limit{Input: invoices, Count: 100}, []sqlparse.Expr{in("cust_id")}, count)

	rows := opt.PlanningRows(env, invoices)
	for _, c := range []struct {
		name      string
		e         sqlparse.Expr
		n         plan.Node
		want      float64
		wantGroup float64
	}{
		{"cust_id over GROUP BY cust_id", out("i.cust_id"), byCust, 4000, 4000},
		{"cust_id over GROUP BY cust_id, status", out("i.cust_id"), byCustStatus, 4000, math.Min(12000, rows)},
		{"status over GROUP BY cust_id, status", out("i.status"), byCustStatus, 3, math.Min(12000, rows)},
		{"an aggregate output has no provenance", out("COUNT(*)"), byCust, 10, 4000},
		{"capped at the aggregate's rows", out("i.cust_id"), capped, 100, 100},
	} {
		if got := opt.DistinctOf(env, c.e, c.n); got != c.want {
			t.Errorf("%s: distinct %v, want %v", c.name, got, c.want)
		}
		if got := opt.PlanningRows(env, c.n); got != c.wantGroup {
			t.Errorf("%s: %v groups, want %v", c.name, got, c.wantGroup)
		}
	}
}

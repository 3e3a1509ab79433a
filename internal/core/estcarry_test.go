package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/feedback"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// benchFamilyCases are the statement families of the repository
// benchmark's four workloads, each on a fixture of its own: the portal's
// point query, the analyst's three reports, the cross-shard joins' bloom
// and IN-list tiers (on one engine) and a spread of ad hoc shapes. Then,
// on a fixture nothing has executed on, the joins of every reduced-fetch
// tier under static options: the bloom tier, the IN-list tier and the
// FALSE form of a probe side without keys.
func benchFamilyCases(t *testing.T) []costCase {
	t.Helper()
	crm := func(customers int) *core.Engine {
		fed, err := workload.CRMOf(customers)
		if err != nil {
			t.Fatal(err)
		}
		return fed.Engine
	}
	qo := core.DefaultQueryOptions()
	var cases []costCase
	portal := crm(120)
	for i := 0; i < 3; i++ {
		cases = append(cases, costCase{fmt.Sprintf("portal %d", i), portal, workload.PortalSQL(i), qo})
	}
	analyst := crm(1000)
	for i, sql := range []string{workload.ReportJoinSQL, workload.ReportAggSQL, workload.FanOutSQL} {
		cases = append(cases, costCase{fmt.Sprintf("analyst %d", i), analyst, sql, qo})
	}
	const join = "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "
	bloom := join + "c.region = 'west' AND i.status = 'overdue' AND i.amount > 10"
	inList := join + "c.region = 'west' AND c.segment = 'smb' AND i.status = 'overdue' AND i.amount > 10"
	empty := join + "c.region = 'nowhere' AND i.status = 'overdue' AND i.amount > 10"
	cluster := crm(3000)
	cases = append(cases, costCase{"cluster bloom", cluster, bloom, qo}, costCase{"cluster IN-list", cluster, inList, qo})
	adhoc := crm(500)
	for i, where := range []string{
		"id = 7", "id = 7 AND amount > 300", "inv_id = 12", "id = 7 AND status = 'open'",
		"id BETWEEN 7 AND 10", "id < 9 AND region = 'west'", "id IN (7, 300)", "inv_id < 20 AND amount <= 600",
	} {
		cases = append(cases, costCase{fmt.Sprintf("adhoc %d", i), adhoc,
			"SELECT name, inv_id, amount FROM customer360 WHERE " + where + " ORDER BY inv_id", qo})
	}
	tiers := crm(3000)
	for _, c := range []struct{ label, sql string }{{"bloom", bloom}, {"IN-list", inList}, {"FALSE", empty}} {
		cases = append(cases, costCase{"tier " + c.label, tiers, c.sql, core.QueryOptions{}})
	}
	return cases
}

// TestCarriedEstimatesMatchFreshEstimator: a bound plan runs with the
// numbers a fresh estimator gives it. Over the cost cases, the
// benchmark's statement families and the subquery cases, under the feedback state they compiled
// under (adaptive cases execute first, so estimates blend observations
// in): every node of the bound plan carries the estimate
// opt.NewEstimator gives it, and every Remote the stream
// feedback.Signature renders for its child. Every fetch record of an
// execution names the stream a fresh rendering of its subtree gives and
// the estimate a fresh estimator gives that subtree — for a semi-join's
// reduced fetch, whose estimate the store reads only on a stream's first
// observation, checked where its stream is still unobserved, and in each
// of its forms: IN-list, bloom filter and FALSE.
func TestCarriedEstimatesMatchFreshEstimator(t *testing.T) {
	ctx := context.Background()
	tiers := map[string]int{}
	cases := append(costCases(t, 60), benchFamilyCases(t)...)
	for _, c := range append(cases, subqueryCostCases(t)...) {
		if c.qo.Adaptive {
			if _, err := c.e.QueryOptsCtx(ctx, c.sql, c.qo); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
		}
		checkCarried(t, ctx, c, tiers)
	}
	for _, tier := range []string{"IN-list", "bloom", "FALSE"} {
		if tiers[tier] == 0 {
			t.Errorf("no unobserved %s-form reduced fetch was checked", tier)
		}
	}
}

func checkCarried(t *testing.T, ctx context.Context, c costCase, tiers map[string]int) {
	t.Helper()
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	p, env, err := c.e.BoundPlan(ar, c.sql, c.qo)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	est := opt.NewEstimator(env)
	defer est.Release()
	inPlan := map[plan.Node]bool{}
	plan.Walk(p, func(n plan.Node) {
		inPlan[n] = true
		if got, want := n.EstRows(), est.Rows(n); got != want {
			t.Errorf("%s: %s carries %d rows, a fresh estimator gives %d", c.label, n.Describe(), got, want)
		}
		if r, ok := n.(*plan.Remote); ok {
			checkStream(t, c.label, r.Stream, r.Child)
		}
	})
	err = c.e.RunRecorded(ctx, p, c.qo, func(led *exec.CardLedger) {
		for _, f := range led.Fetches() {
			r := f.Fetch
			checkStream(t, c.label, r.Stream, r.Child)
			if !inPlan[r] {
				cond := r.Child.(*plan.Filter).Cond
				tier := map[string]string{"*sqlparse.InExpr": "IN-list", "*sqlparse.KeyFilterExpr": "bloom", "*sqlparse.Literal": "FALSE"}[fmt.Sprintf("%T", cond)]
				if tier == "" {
					t.Fatalf("%s: reduced fetch filters on %T", c.label, cond)
				}
				if r.Stream != nil {
					shape := feedback.Shape{Source: r.Stream.Source, Table: r.Stream.Table, Sig: []byte(r.Stream.Sig)}
					if _, seen := c.e.Feedback().Lookup(shape); seen {
						continue
					}
				}
				tiers[tier]++
			}
			if got, want := r.EstRows(), est.Rows(r.Child); got != want {
				t.Errorf("%s: the fetch of %s records %d planned rows, a fresh estimator gives %d", c.label, plan.Explain(r.Child), got, want)
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
}

// checkStream fails unless stream is what a fresh rendering of n gives:
// nil where n has no signature.
func checkStream(t *testing.T, label string, stream *plan.Stream, n plan.Node) {
	t.Helper()
	k, ok := feedback.Signature(n)
	switch {
	case !ok && stream != nil:
		t.Errorf("%s: %s has no signature but feeds stream %+v", label, plan.Explain(n), *stream)
	case ok && (stream == nil || *stream != k):
		t.Errorf("%s: %s feeds stream %v, a fresh rendering gives %+v", label, plan.Explain(n), stream, k)
	}
}

package opt_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/opt"
	"repro/internal/workload"
)

// TestWarmHitEstimatesNothing: a plan-cache hit runs with the estimates
// and feedback streams its plan carries. Under core.DefaultQueryOptions —
// adaptive, so every hit fills the per-operator ledger, arms the re-plan
// tripwire and feeds the store — 200 warm executions of the portal's
// point query, of the E17 prepared point query and of an IN-list-tier
// semi-join evaluate no estimate, render no signature and look nothing up
// in the feedback store. The counters are process-wide, so nothing else in
// this package may run beside the test.
func TestWarmHitEstimatesNothing(t *testing.T) {
	ctx := context.Background()
	qo := core.DefaultQueryOptions()
	portal, err := workload.CRMOf(120)
	if err != nil {
		t.Fatal(err)
	}
	semi, err := workload.CRMOf(3000)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := portal.Engine.PrepareOpts(ctx, "SELECT name, amount, status FROM customer360 WHERE id = $1 AND amount > $2", qo)
	if err != nil {
		t.Fatal(err)
	}
	const semiJoinSQL = `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' AND c.segment = 'smb' AND i.status = 'overdue'`
	for _, c := range []struct {
		name string
		run  func(i int) (*core.Result, error)
	}{
		{"portal point query", func(i int) (*core.Result, error) {
			return portal.Engine.QueryOptsCtx(ctx, workload.PortalSQL(i), qo)
		}},
		{"E17 prepared point query", func(i int) (*core.Result, error) {
			return prepared.ExecuteCtx(ctx, datum.NewInt(int64(1+i%97)), datum.NewInt(int64(100+50*(i%9))))
		}},
		{"IN-list-tier semi-join", func(int) (*core.Result, error) {
			return semi.Engine.QueryOptsCtx(ctx, semiJoinSQL, qo)
		}},
	} {
		// Compile, then let the first observations settle the store.
		for i := 0; i < 20; i++ {
			if _, err := c.run(i); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		rows, sigs := opt.EstimatorWork()
		lookups := opt.FeedbackLookups()
		for i := 0; i < 200; i++ {
			res, err := c.run(i)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !res.CacheHit || res.ReplanCount != 0 {
				t.Fatalf("%s: execution %d was no plain cache hit (hit %v, %d re-plans)", c.name, i, res.CacheHit, res.ReplanCount)
			}
		}
		rows2, sigs2 := opt.EstimatorWork()
		if d := opt.FeedbackLookups() - lookups; rows2 != rows || sigs2 != sigs || d != 0 {
			t.Errorf("%s: 200 warm hits evaluated %d estimates, rendered %d signatures and looked up %d observations; want none",
				c.name, rows2-rows, sigs2-sigs, d)
		}
	}
}

package plan_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestWarmHitCopiesNoNode: a warm plan-cache hit of the portal point
// query, literal or prepared, runs the cached template with its values
// and copies no plan node to bind them.
func TestWarmHitCopiesNoNode(t *testing.T) {
	ctx := context.Background()
	qo := core.DefaultQueryOptions()
	fed, err := workload.CRMOf(120)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := fed.Engine.PrepareOpts(ctx, "SELECT name, amount, status FROM customer360 WHERE id = $1 AND amount > $2", qo)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(i int) (*core.Result, error){
		"literal": func(i int) (*core.Result, error) {
			return fed.Engine.QueryOptsCtx(ctx, workload.PortalSQL(i), qo)
		},
		"prepared": func(i int) (*core.Result, error) {
			return ps.ExecuteCtx(ctx, datum.NewInt(int64(1+i%97)), datum.NewInt(int64(100+50*(i%9))))
		},
	}
	for _, name := range []string{"literal", "prepared"} {
		run := runs[name]
		if _, err := run(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		copied := plan.NodesCopied()
		for i := 1; i <= 100; i++ {
			if res, err := run(i); err != nil || !res.CacheHit {
				t.Fatalf("%s: query %d: hit %v, %v", name, i, res != nil && res.CacheHit, err)
			}
		}
		if n := plan.NodesCopied() - copied; n != 0 {
			t.Errorf("%s: 100 warm hits copied %d plan nodes to bind their values", name, n)
		}
	}
}

package federation_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/workload"
)

// TestWarmTemplateHitRepeatsNothing: once the portal point query's plan
// is cached and has served a second query, the fetches of a warm hit —
// literal or prepared — check no capability and compile none of the
// template's expressions at the sources: the fragments were prepared
// once, on the plan's first reuse. What a hit still compiles at a source
// is the one input that changes per fetch, its semi-join key filter: the
// invoices fetch is reduced by the customer's key. (plan's
// TestWarmHitCopiesNoNode checks that a hit binds nothing.)
func TestWarmTemplateHitRepeatsNothing(t *testing.T) {
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
	for _, c := range []struct {
		name string
		run  func(i int) (*core.Result, error)
	}{
		{"literal", func(i int) (*core.Result, error) {
			return fed.Engine.QueryOptsCtx(ctx, workload.PortalSQL(i), qo)
		}},
		{"prepared", func(i int) (*core.Result, error) {
			return ps.ExecuteCtx(ctx, datum.NewInt(int64(1+i%97)), datum.NewInt(int64(100+50*(i%9))))
		}},
	} {
		for i := 0; i < 20; i++ {
			if _, err := c.run(i); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		validated, compiled, prepared := federation.FetchWork()
		for i := 20; i < 220; i++ {
			res, err := c.run(i)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !res.CacheHit {
				t.Fatalf("%s: query %d missed the plan cache", c.name, i)
			}
		}
		v, cc, p := federation.FetchWork()
		if v != validated || cc-compiled != 200 || p != prepared {
			t.Errorf("%s: 200 warm hits checked capabilities %d times, compiled expressions in %d fetches and prepared %d fragments; want 0, 200 (the key filters) and 0",
				c.name, v-validated, cc-compiled, p-prepared)
		}
	}
}

package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/datum"
)

// TestTemplateHitDegradesAsUnprepared: a fetch of a warm hit that fails
// over to a replica, or is skipped, under AllowPartial runs the template's
// fragment with the query's values — the replica reads them from the
// query scratch — and the hit answers, and marks Partial, ReplicaSources
// and SkippedSources, as the same template run with no prepared slots
// does.
func TestTemplateHitDegradesAsUnprepared(t *testing.T) {
	ctx := context.Background()
	e := newFederation(t)
	e.SetReplicaProvider(&fakeReplica{
		source: "crm", table: "customers", age: time.Minute,
		rows: []datum.Row{
			{datum.NewInt(1), datum.NewString("Ann"), datum.NewString("west")},
			{datum.NewInt(2), datum.NewString("Bob"), datum.NewString("east")},
			{datum.NewInt(3), datum.NewString("Cal"), datum.NewString("east")},
			{datum.NewInt(4), datum.NewString("Dee"), datum.NewString("west")},
		},
	})
	qo := QueryOptions{AllowPartial: true}
	for _, c := range []struct {
		source, sql, want string
		replica, skipped  []string
	}{
		{"crm", "SELECT name FROM crm.customers WHERE region = 'east'", "Bob|Cal", []string{"crm"}, nil},
		{"billing", "SELECT status FROM billing.invoices WHERE amount > 60", "", nil, []string{"billing"}},
	} {
		for i := 0; i < 2; i++ { // compile, then warm the template
			if _, err := e.QueryOptsCtx(ctx, c.sql, qo); err != nil {
				t.Fatal(err)
			}
		}
		src, _ := e.Source(c.source)
		src.Link().SetDown(true)
		res, err := e.QueryOptsCtx(ctx, c.sql, qo)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := e.QueryUnprepared(ctx, c.sql, qo)
		src.Link().SetDown(false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("%q with %s down: the first query missed the plan cache", c.sql, c.source)
		}
		// The failure opened the source's breaker, so the twin compiles
		// under the new availability mask: a miss.
		for _, r := range []*Result{res, twin} {
			if results(t, r) != c.want || !slices.Equal(r.ReplicaSources, c.replica) ||
				!slices.Equal(r.SkippedSources, c.skipped) || r.Partial != (c.skipped != nil) {
				t.Errorf("%q with %s down: %q, replicas %v, skipped %v, partial %v; want %q, %v, %v",
					c.sql, c.source, results(t, r), r.ReplicaSources, r.SkippedSources, r.Partial, c.want, c.replica, c.skipped)
			}
		}
	}
}

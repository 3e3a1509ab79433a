package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// literalOnlySource is a source that does not bind parameters itself: it
// records whether any fragment it was sent still held one.
type literalOnlySource struct {
	federation.Source
	sawParam bool
}

func (s *literalOnlySource) Capabilities() federation.Caps {
	caps := s.Source.Capabilities()
	caps.BindsParams = false
	return caps
}

func (s *literalOnlySource) ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error) {
	plan.Walk(subtree, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			sqlparse.WalkExprs(f.Cond, func(x sqlparse.Expr) {
				if _, ok := x.(*sqlparse.Param); ok {
					s.sawParam = true
				}
			})
		}
	})
	return s.Source.ExecuteCtx(ctx, subtree)
}

// TestTemplateHitBindsForLiteralOnlySource: a source whose capabilities
// do not include BindsParams is sent a warm hit's fragment bound, and the
// hit answers as a fresh compile does.
func TestTemplateHitBindsForLiteralOnlySource(t *testing.T) {
	ctx := context.Background()
	e := newFederation(t)
	crm, _ := e.Source("crm")
	e.Deregister("crm")
	wrapped := &literalOnlySource{Source: crm}
	if err := e.Register(wrapped); err != nil {
		t.Fatal(err)
	}
	qo := DefaultQueryOptions()
	for i, region := range []string{"west", "east", "east"} {
		sql := "SELECT name FROM crm.customers WHERE region = '" + region + "'"
		res, err := e.QueryOptsCtx(ctx, sql, qo)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.QueryOptsCtx(ctx, sql, QueryOptions{NoPlanCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != (i > 0) || results(t, res) != results(t, fresh) {
			t.Fatalf("%q: hit %v, %q; a fresh compile %q", sql, res.CacheHit, results(t, res), results(t, fresh))
		}
	}
	if wrapped.sawParam {
		t.Fatal("a source that does not bind parameters was sent a fragment holding one")
	}
}

// TestTemplateHitDegradesAsBound: a warm hit runs its cached template
// unbound, but a fetch that fails over to a replica, or is skipped, under
// AllowPartial runs the fragment bound — the replica reads it bound — and
// the hit answers, and marks Partial, ReplicaSources and SkippedSources,
// as the same plan run bound does.
func TestTemplateHitDegradesAsBound(t *testing.T) {
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
		twin, err := e.QueryBound(ctx, c.sql, qo)
		src.Link().SetDown(false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("%q with %s down: the first query missed the plan cache", c.sql, c.source)
		}
		// The failure opened the source's breaker, so the twin compiles
		// under the new availability mask: a miss, which runs bound.
		for _, r := range []*Result{res, twin} {
			if results(t, r) != c.want || !slices.Equal(r.ReplicaSources, c.replica) ||
				!slices.Equal(r.SkippedSources, c.skipped) || r.Partial != (c.skipped != nil) {
				t.Errorf("%q with %s down: %q, replicas %v, skipped %v, partial %v; want %q, %v, %v",
					c.sql, c.source, results(t, r), r.ReplicaSources, r.SkippedSources, r.Partial, c.want, c.replica, c.skipped)
			}
		}
	}
}

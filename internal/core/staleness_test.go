package core

import (
	"context"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/linkage"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// Statements over newFederation. bareCustomers names a source table
// without its source, so a view, a second source or a correlation table
// called customers changes what it reads; qualInvoices reads nothing any
// write below touches.
const (
	bareCustomers = "SELECT name FROM customers ORDER BY name"
	qualInvoices  = "SELECT amount FROM billing.invoices WHERE cust_id = 1 ORDER BY amount"
	westOnly      = "SELECT name FROM crm.customers WHERE region = 'west'"
)

// stalenessCase is one kind of catalog write, a cached statement whose
// plan reads what the write changes, and what that statement returns after
// the write: its rows, or "error" when it no longer plans.
type stalenessCase struct {
	name      string
	setup     func(t *testing.T, e *Engine)
	dependent string
	write     func(t *testing.T, e *Engine)
	after     string
	// floor is set for writes no name scopes: every plan recompiles.
	floor bool
}

// singleTableSource returns a source called name holding one one-column
// table.
func singleTableSource(t *testing.T, name, table string) *federation.RelationalSource {
	t.Helper()
	src := federation.NewRelationalSource(name, federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	if _, err := src.CreateTable(schema.MustTable(table, []schema.Column{{Name: "name", Kind: datum.KindString}})); err != nil {
		t.Fatal(err)
	}
	return src
}

func tinyJoinIndex() *linkage.JoinIndex {
	return linkage.Build(
		[]linkage.Record{{Key: datum.NewInt(1), Text: "alpha"}},
		[]linkage.Record{{Key: datum.NewInt(2), Text: "alpha"}},
		linkage.DefaultConfig())
}

// localRouter routes nothing: installing it changes no fetch, but the
// engine cannot know that.
type localRouter struct{}

func (localRouter) RouteRemote(context.Context, string, plan.Node) ([]datum.Row, bool, error) {
	return nil, false, nil
}

func (localRouter) FilterCapable(string) bool { return false }

// TestCatalogWritesRetireOnlyDependentPlans covers every kind of write
// that can change a compiled plan: the cached plan that read what the write
// changed recompiles (or, when its names no longer resolve, fails to plan)
// and is swept out by the write; a cached plan on an independent name keeps
// hitting, except after a write that raises the catalog's floor.
func TestCatalogWritesRetireOnlyDependentPlans(t *testing.T) {
	cases := []stalenessCase{
		{
			// Shadowing: a view takes over a bare name that resolved to
			// crm.customers, and the cached plan must read the view.
			name:      "DefineView",
			dependent: bareCustomers,
			write: func(t *testing.T, e *Engine) {
				if err := e.DefineView("customers", westOnly); err != nil {
					t.Fatal(err)
				}
			},
			after: "Ann|Dee",
		},
		{
			name: "DropView",
			setup: func(t *testing.T, e *Engine) {
				if err := e.DefineView("customers", westOnly); err != nil {
					t.Fatal(err)
				}
			},
			dependent: bareCustomers,
			write:     func(t *testing.T, e *Engine) { e.DropView("customers") },
			after:     "Ann|Bob|Cal|Dee",
		},
		{
			// A second source with a customers table makes the bare name
			// ambiguous.
			name:      "Register",
			dependent: bareCustomers,
			write: func(t *testing.T, e *Engine) {
				if err := e.Register(singleTableSource(t, "crm2", "customers")); err != nil {
					t.Fatal(err)
				}
			},
			after: "error",
		},
		{
			name: "Deregister",
			setup: func(t *testing.T, e *Engine) {
				if err := e.Register(singleTableSource(t, "legacy", "clients")); err != nil {
					t.Fatal(err)
				}
			},
			dependent: "SELECT name FROM clients ORDER BY name",
			write:     func(t *testing.T, e *Engine) { e.Deregister("legacy") },
			after:     "error",
		},
		{
			// correlations.customers makes the bare name ambiguous.
			name:      "DefineCorrelation",
			dependent: bareCustomers,
			write: func(t *testing.T, e *Engine) {
				if err := e.DefineCorrelation("customers", tinyJoinIndex()); err != nil {
					t.Fatal(err)
				}
			},
			after: "error",
		},
		{
			name: "DropCorrelation",
			setup: func(t *testing.T, e *Engine) {
				if err := e.DefineCorrelation("links", tinyJoinIndex()); err != nil {
					t.Fatal(err)
				}
			},
			dependent: "SELECT COUNT(*) FROM correlations.links",
			write: func(t *testing.T, e *Engine) {
				if err := e.DropCorrelation("links"); err != nil {
					t.Fatal(err)
				}
			},
			after: "0",
		},
		{
			name:      "SetBreakerConfig",
			dependent: bareCustomers,
			write:     func(t *testing.T, e *Engine) { e.SetBreakerConfig(BreakerConfig{FailureThreshold: 5}) },
			after:     "Ann|Bob|Cal|Dee",
			floor:     true,
		},
		{
			name:      "SetFetchRouter",
			dependent: bareCustomers,
			write:     func(t *testing.T, e *Engine) { e.SetFetchRouter(localRouter{}) },
			after:     "Ann|Bob|Cal|Dee",
			floor:     true,
		},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newFederation(t)
			if c.setup != nil {
				c.setup(t, e)
			}
			for _, sql := range []string{c.dependent, qualInvoices} {
				if _, err := e.QueryCtx(ctx, sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			before := e.PlanCacheStats()
			c.write(t, e)
			swept := e.PlanCacheStats()
			retired := swept.Invalidations - before.Invalidations
			switch {
			case c.floor && swept.Entries != 0:
				t.Errorf("floor write left %d plans cached", swept.Entries)
			case !c.floor && (retired != 1 || swept.Entries != before.Entries-1):
				t.Errorf("write retired %d plans, entries %d -> %d; want exactly the dependent one",
					retired, before.Entries, swept.Entries)
			}

			res, err := e.QueryCtx(ctx, c.dependent)
			if c.after == "error" {
				if err == nil {
					t.Fatalf("dependent statement still planned after the write: %s", results(t, res))
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if res.CacheHit {
					t.Error("dependent plan served from the cache after the write")
				}
				if got := results(t, res); got != c.after {
					t.Errorf("dependent rows = %q, want %q", got, c.after)
				}
			}

			res, err = e.QueryCtx(ctx, qualInvoices)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit == c.floor {
				t.Errorf("independent plan: cache hit = %v after the write, want %v", res.CacheHit, !c.floor)
			}
		})
	}
}

// TestInFlightCompileAcrossWriteIsNotServed: a compile that began under
// the snapshot before a conflicting write stores its plan only after the
// write's sweep has run. The next query must not be served that plan,
// whether the write was scoped to a name the plan read or raised the
// catalog's floor.
func TestInFlightCompileAcrossWriteIsNotServed(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(t *testing.T, e *Engine)
		want  string
	}{
		{"DefineView", func(t *testing.T, e *Engine) {
			if err := e.DefineView("customers", westOnly); err != nil {
				t.Fatal(err)
			}
		}, "Ann|Dee"},
		{"SetBreakerConfig", func(t *testing.T, e *Engine) {
			e.SetBreakerConfig(BreakerConfig{FailureThreshold: 5})
		}, "Ann|Bob|Cal|Dee"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newFederation(t)
			ctx := context.Background()
			sel, err := sqlparse.Parse(bareCustomers)
			if err != nil {
				t.Fatal(err)
			}
			st, old := e.state.Load(), e.catalog.Snapshot()
			c.write(t, e)
			ar := sqlparse.GetArena()
			defer sqlparse.PutArena(ar)
			if _, hit, err := e.cachedTemplate(st, ar, sqlparse.CacheKeys{SQL: sel.SQL()}, DefaultQueryOptions(), old); err != nil || hit {
				t.Fatalf("in-flight compile: hit=%v err=%v", hit, err)
			}
			before := e.PlanCacheStats().Invalidations

			res, err := e.QueryCtx(ctx, bareCustomers)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit {
				t.Fatal("served a plan compiled against the snapshot before the write")
			}
			if got := results(t, res); got != c.want {
				t.Errorf("rows = %q, want %q", got, c.want)
			}
			if n := e.PlanCacheStats().Invalidations - before; n != 1 {
				t.Errorf("lookup retired %d stale plans, want 1", n)
			}
		})
	}
}

// TestUnreadViewChurnRetiresNothing: defining and dropping a view no
// cached plan read leaves every plan in place and counts no invalidation.
func TestUnreadViewChurnRetiresNothing(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	stmts := []string{
		bareCustomers,
		qualInvoices,
		"SELECT name FROM customer360 WHERE amount > 60 ORDER BY name",
		"SELECT severity FROM files.tickets WHERE cust_id = 3",
	}
	for _, sql := range stmts {
		if _, err := e.QueryCtx(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	before := e.PlanCacheStats()
	if err := e.DefineView("churn", westOnly); err != nil {
		t.Fatal(err)
	}
	e.DropView("churn")
	after := e.PlanCacheStats()
	if after.Invalidations != 0 || after.Entries != before.Entries {
		t.Fatalf("unread view churn: invalidations %d, entries %d -> %d; want 0 and unchanged",
			after.Invalidations, before.Entries, after.Entries)
	}
	for _, sql := range stmts {
		res, err := e.QueryCtx(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Errorf("%s: recompiled after a write it did not read", sql)
		}
	}
}

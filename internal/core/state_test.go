package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
)

// TestReadPathTakesNoEngineLock holds the engine mutex for the whole test:
// everything a query or an observer does must still finish, because the
// read path loads the published engine state instead of locking.
func TestReadPathTakesNoEngineLock(t *testing.T) {
	e := newFederation(t)
	ctx := context.Background()
	if err := e.DefineTenant(TenantConfig{Name: "gold", MaxConcurrent: 4}); err != nil {
		t.Fatal(err)
	}
	const point = "SELECT name, amount FROM customer360 WHERE id = ? AND amount > ?"
	ps, err := e.PrepareOpts(ctx, point, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.ExecuteCtx(ctx, datum.NewInt(1), datum.NewFloat(10)); err != nil {
		t.Fatal(err)
	}

	ops := []struct {
		name string
		run  func() error
	}{
		{"warm prepared point query", func() error {
			res, err := ps.ExecuteCtx(ctx, datum.NewInt(1), datum.NewFloat(10))
			if err == nil && !res.CacheHit {
				err = errors.New("warm execution missed the plan cache")
			}
			return err
		}},
		{"literal query", func() error {
			_, err := e.QueryCtx(ctx, "SELECT name, amount FROM customer360 WHERE id = 2 AND amount > 10")
			return err
		}},
		{"ExplainAnalyze", func() error {
			_, err := e.ExplainAnalyze(ctx, "SELECT COUNT(*) FROM customer360", DefaultQueryOptions())
			return err
		}},
		{"Sources", func() error { e.Sources(); return nil }},
		{"BreakerStates", func() error { e.BreakerStates(); return nil }},
		{"AdmissionStats", func() error { e.AdmissionStats(); return nil }},
		{"Clock", func() error { e.Clock(); return nil }},
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	done := make(chan error, len(ops)) // sized to the sends: the worker never blocks on it
	go func() {
		for _, op := range ops {
			done <- op.run()
		}
	}()
	watchdog := time.After(2 * time.Second)
	for _, op := range ops {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
		case <-watchdog:
			t.Fatalf("%s blocked on the engine mutex", op.name)
		}
	}
}

// TestEngineStateConsistentUnderMutation races queries against every kind
// of engine reconfiguration: each query runs under the one state it loaded,
// so it returns the baseline answer (or a typed error), never a mixture.
func TestEngineStateConsistentUnderMutation(t *testing.T) {
	ctx := context.Background()
	const sql = "SELECT name, amount FROM customer360 WHERE amount > 20 ORDER BY name, amount"

	t.Run("storm", func(t *testing.T) {
		e := newFederation(t)
		res, err := e.QueryCtx(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		base := results(t, res)

		stop := make(chan struct{})
		var mutator, clients sync.WaitGroup
		mutator.Add(1)
		go func() {
			defer mutator.Done()
			extra := federation.NewRelationalSource("extra", federation.FullSQL(), netsim.LocalLink())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Register(extra); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				e.SetBreakerConfig(BreakerConfig{FailureThreshold: 3 + i%2})
				e.SetReplicaProvider(&fakeReplica{})
				e.SetFetchRouter(nil)
				e.Deregister("extra")
			}
		}()
		for c := 0; c < 4; c++ {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for i := 0; i < 40; i++ {
					res, err := e.QueryCtx(ctx, sql)
					var boe *BreakerOpenError
					switch {
					case err == nil:
						if got := results(t, res); got != base {
							t.Errorf("answer changed under mutation:\n got %s\nwant %s", got, base)
						}
					case errors.As(err, &boe), IsOverload(err), isContextErr(err):
					default:
						t.Errorf("untyped error under mutation: %v", err)
					}
				}
			}()
		}
		clients.Wait()
		close(stop)
		mutator.Wait()
	})

	// A clone shares what its mutator did not replace: a tripped breaker and
	// the feedback store survive unrelated mutations, and only the calls
	// documented to reset breakers do.
	t.Run("unrelated mutations keep breaker state", func(t *testing.T) {
		e := newFederation(t)
		cfg := BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour}
		e.SetBreakerConfig(cfg)
		crm, _ := e.Source("crm")
		crm.Link().SetDown(true)
		trip := func() {
			t.Helper()
			if _, err := e.QueryOptsCtx(ctx, "SELECT COUNT(*) FROM crm.customers", QueryOptions{}); err == nil {
				t.Fatal("query over downed source must fail")
			}
			if st := e.BreakerStates()["crm"]; st != BreakerOpen {
				t.Fatalf("breaker = %s after a failure at threshold 1", st)
			}
		}
		trip()
		fb := e.Feedback()

		extra := federation.NewRelationalSource("extra", federation.FullSQL(), netsim.LocalLink())
		if err := e.Register(extra); err != nil {
			t.Fatal(err)
		}
		states := e.BreakerStates()
		if len(states) != len(e.Sources()) || states["extra"] != BreakerClosed {
			t.Errorf("BreakerStates right after Register = %v, want every source of %v", states, e.Sources())
		}
		e.SetReplicaProvider(&fakeReplica{})
		if st := e.BreakerStates()["crm"]; st != BreakerOpen || e.SourceAvailable("crm") {
			t.Errorf("breaker = %s after Register + SetReplicaProvider, want still open", st)
		}
		if e.Feedback() != fb {
			t.Error("an unrelated mutation replaced the feedback store")
		}

		e.SetBreakerConfig(cfg)
		if st := e.BreakerStates()["crm"]; st != BreakerClosed {
			t.Errorf("breaker = %s after SetBreakerConfig, want reset", st)
		}
		trip()
		e.SetClock(netsim.NewVirtualClock(time.Unix(0, 0)))
		if st := e.BreakerStates()["crm"]; st != BreakerClosed {
			t.Errorf("breaker = %s after SetClock, want reset", st)
		}
	})
}

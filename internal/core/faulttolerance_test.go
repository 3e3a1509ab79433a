package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
)

// fanOutFederation registers n single-table relational sources (s0..sN,
// each with table t holding one row carrying the source index) and a
// "wide" view unioning them all.
func fanOutFederation(t *testing.T, n int) *Engine {
	t.Helper()
	e := New()
	var union []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		src := federation.NewRelationalSource(name, federation.FullSQL(),
			netsim.NewLink(time.Millisecond, 1e6, 1))
		tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{
			{Name: "v", Kind: datum.KindInt},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		src.RefreshStats()
		if err := e.Register(src); err != nil {
			t.Fatal(err)
		}
		union = append(union, fmt.Sprintf("SELECT v FROM %s.t", name))
	}
	if err := e.DefineView("wide", strings.Join(union, " UNION ALL ")); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFanOutOutagePartialResult(t *testing.T) {
	e := fanOutFederation(t, 64)
	down, _ := e.Source("s17")
	down.Link().SetDown(true)

	// Naive execution: the outage fails the whole query.
	if _, err := e.QueryOptsCtx(context.Background(), "SELECT v FROM wide", QueryOptions{Parallel: true}); err == nil {
		t.Fatal("query over downed source must error without AllowPartial")
	}

	// AllowPartial: the 63 surviving sources answer; the failed source is
	// named and the result marked partial.
	res, err := e.QueryOptsCtx(context.Background(), "SELECT v FROM wide", QueryOptions{Parallel: true, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 63 {
		t.Errorf("rows = %d, want 63", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Int() == 17 {
			t.Error("row from the downed source leaked into the result")
		}
	}
	if !res.Partial {
		t.Error("Partial not set")
	}
	if len(res.SkippedSources) != 1 || res.SkippedSources[0] != "s17" {
		t.Errorf("SkippedSources = %v", res.SkippedSources)
	}
	if res.SourceErrors["s17"] == 0 {
		t.Errorf("SourceErrors = %v", res.SourceErrors)
	}
}

func TestRetryRecoversFlakySource(t *testing.T) {
	e := newFederation(t)
	crm, _ := e.Source("crm")
	const sql = "SELECT name FROM crm.customers WHERE region = 'east'"

	// Flaky-then-recover: the first two transfers fail.
	crm.Link().SetFaultProfile(&netsim.FaultProfile{FailFirst: 2})
	if _, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{}); err == nil {
		t.Fatal("no-retry query must fail on first flaky transfer")
	}

	crm.Link().SetFaultProfile(&netsim.FaultProfile{FailFirst: 2})
	before := crm.Link().Metrics().SimTime
	res, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{
		Retry: exec.RetryPolicy{Attempts: 4, BaseBackoff: 3 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
	if res.Partial {
		t.Error("a recovered query is not partial")
	}
	if res.Retries["crm"] != 2 || res.SourceErrors["crm"] != 2 {
		t.Errorf("retries=%v errors=%v", res.Retries, res.SourceErrors)
	}
	// Backoff is charged in virtual time: 3ms + 6ms on top of transfer
	// latencies.
	if waited := crm.Link().Metrics().SimTime - before; waited < 9*time.Millisecond {
		t.Errorf("virtual time %s does not include backoff", waited)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	e := newFederation(t)
	e.SetBreakerConfig(BreakerConfig{FailureThreshold: 3, OpenTimeout: 30 * time.Millisecond})
	crm, _ := e.Source("crm")
	crm.Link().SetDown(true)
	const sql = "SELECT COUNT(*) FROM crm.customers"

	for i := 0; i < 3; i++ {
		if states := e.BreakerStates(); states["crm"] != BreakerClosed {
			t.Fatalf("breaker %s before threshold (failure %d)", states["crm"], i)
		}
		if _, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{}); err == nil {
			t.Fatal("query over downed source must fail")
		}
	}
	if states := e.BreakerStates(); states["crm"] != BreakerOpen {
		t.Fatalf("breaker = %s after 3 consecutive failures", states["crm"])
	}

	// Open breaker fails fast: no round trip reaches the link.
	trips := crm.Link().Metrics().RoundTrips
	_, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{})
	var boe *BreakerOpenError
	if !errors.As(err, &boe) || boe.Source != "crm" {
		t.Fatalf("want BreakerOpenError for crm, got %v", err)
	}
	if crm.Link().Metrics().RoundTrips != trips {
		t.Error("open breaker still charged the link")
	}
	// An open source is unavailable to the optimizer.
	if e.SourceAvailable("crm") {
		t.Error("open breaker reports available")
	}

	// After the open timeout the half-open probe restores service.
	crm.Link().SetDown(false)
	time.Sleep(35 * time.Millisecond)
	if states := e.BreakerStates(); states["crm"] != BreakerHalfOpen {
		t.Errorf("breaker = %s after open timeout", states["crm"])
	}
	res, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{})
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if states := e.BreakerStates(); states["crm"] != BreakerClosed {
		t.Errorf("breaker = %s after successful probe", states["crm"])
	}
}

// fakeReplica is a test ReplicaProvider holding one table copy. (The real
// provider is warehouse.Warehouse, exercised in its own package: core
// cannot import warehouse without a cycle.)
type fakeReplica struct {
	source, table string
	rows          []datum.Row
	age           time.Duration
}

func (f *fakeReplica) ReplicaTable(source, table string) ([]datum.Row, time.Duration, bool) {
	if !strings.EqualFold(source, f.source) || !strings.EqualFold(table, f.table) {
		return nil, 0, false
	}
	return f.rows, f.age, true
}

func TestReplicaFallbackServesDownedSource(t *testing.T) {
	e := newFederation(t)
	crm, _ := e.Source("crm")
	e.SetReplicaProvider(&fakeReplica{
		source: "crm", table: "customers", age: time.Minute,
		rows: []datum.Row{
			{datum.NewInt(1), datum.NewString("Ann"), datum.NewString("west")},
			{datum.NewInt(2), datum.NewString("Bob"), datum.NewString("east")},
			{datum.NewInt(3), datum.NewString("Cal"), datum.NewString("east")},
			{datum.NewInt(4), datum.NewString("Dee"), datum.NewString("west")},
		},
	})

	crm.Link().SetDown(true)
	res, err := e.QueryOptsCtx(context.Background(), "SELECT name FROM crm.customers WHERE region = 'east'",
		QueryOptions{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, res); got != "Bob|Cal" {
		t.Errorf("replica rows = %q", got)
	}
	if len(res.ReplicaSources) != 1 || res.ReplicaSources[0] != "crm" {
		t.Errorf("ReplicaSources = %v", res.ReplicaSources)
	}
	if res.Partial || len(res.SkippedSources) != 0 {
		t.Errorf("replica-served result marked partial: %+v", res)
	}

	// A staleness cap tighter than the replica's age forces the skip path.
	res, err = e.QueryOptsCtx(context.Background(), "SELECT name FROM crm.customers",
		QueryOptions{AllowPartial: true, ReplicaMaxAge: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.Rows) != 0 {
		t.Errorf("stale replica must not serve: partial=%v rows=%d", res.Partial, len(res.Rows))
	}
}

func TestDeadlineAbortsQuery(t *testing.T) {
	e := newFederation(t)
	_, err := e.QueryOptsCtx(context.Background(), "SELECT name FROM crm.customers", QueryOptions{Deadline: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// AllowPartial does not rescue a query whose own deadline passed.
	_, err = e.QueryOptsCtx(context.Background(), "SELECT name FROM crm.customers",
		QueryOptions{Deadline: time.Nanosecond, AllowPartial: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded with AllowPartial, got %v", err)
	}
}

// TestFaultStress runs parallel partial-tolerant queries while one
// goroutine toggles a link outage and another registers/deregisters an
// unrelated source. Meant for -race; results are only sanity-checked.
func TestFaultStress(t *testing.T) {
	e := newFederation(t)
	e.SetBreakerConfig(BreakerConfig{FailureThreshold: 4, OpenTimeout: time.Millisecond})
	billing, _ := e.Source("billing")

	stop := make(chan struct{})
	var chaos sync.WaitGroup

	chaos.Add(1)
	go func() { // outage toggler
		defer chaos.Done()
		down := false
		for {
			select {
			case <-stop:
				billing.Link().SetDown(false)
				return
			default:
				down = !down
				billing.Link().SetDown(down)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	chaos.Add(1)
	go func() { // churn an unrelated source through Register/Deregister
		defer chaos.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			src := federation.NewRelationalSource("churn", federation.FullSQL(), netsim.LocalLink())
			if _, err := src.CreateTable(schema.MustTable("x", []schema.Column{
				{Name: "a", Kind: datum.KindInt},
			})); err != nil {
				t.Error(err)
				return
			}
			if err := e.Register(src); err != nil {
				t.Error(err)
				return
			}
			e.Deregister("churn")
		}
	}()

	queries := []string{
		"SELECT name, SUM(amount) FROM customer360 GROUP BY name",
		"SELECT COUNT(*) FROM billing.invoices",
		"SELECT cust_id FROM files.tickets WHERE severity >= 2",
	}
	errs := make(chan error, 128)
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 30; i++ {
				res, err := e.QueryOptsCtx(context.Background(), queries[(g+i)%len(queries)], QueryOptions{
					Parallel:     true,
					AllowPartial: true,
					Retry:        exec.RetryPolicy{Attempts: 2, BaseBackoff: time.Millisecond},
				})
				if err != nil {
					// Fault-path errors are acceptable under chaos; anything
					// else is a bug.
					var fe *netsim.FaultError
					var boe *BreakerOpenError
					if !errors.As(err, &fe) && !errors.As(err, &boe) {
						errs <- err
						return
					}
					continue
				}
				for _, row := range res.Rows {
					if len(row) != len(res.Columns) {
						errs <- errRowShape
						return
					}
				}
			}
		}(g)
	}

	workers.Wait()
	close(stop)
	chaos.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

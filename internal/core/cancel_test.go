package core

// E15 cancellation tests: a cancelled query — client disconnect,
// CancelQuery, or deadline — must quiesce every goroutine it started
// (exchange feeder/workers/merger, remote prefetchers, retry backoffs,
// blocking netsim transfers) and surface the context error.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

// slowFanOutFederation is fanOutFederation over links that really block
// (RealSleep): transfers take wall-clock time, so a cancellation lands
// while exchange workers and remote fetches are genuinely in flight.
func slowFanOutFederation(t *testing.T, n, rowsPer int, latency time.Duration) *Engine {
	t.Helper()
	e := New()
	var union []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		link := netsim.NewLink(latency, 1e6, 1)
		link.RealSleep = true
		src := federation.NewRelationalSource(name, federation.FullSQL(), link)
		tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{
			{Name: "v", Kind: datum.KindInt},
		}))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rowsPer; r++ {
			if err := tab.Insert(datum.Row{datum.NewInt(int64(i*rowsPer + r))}); err != nil {
				t.Fatal(err)
			}
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

// TestCancelMidExchangeNoGoroutineLeak cancels queries while the morsel
// exchange is mid-stream — workers busy, feeder pumping, remote
// prefetchers parked on blocking transfers — and checks everything
// unwinds to the goroutine baseline.
func TestCancelMidExchangeNoGoroutineLeak(t *testing.T) {
	e := slowFanOutFederation(t, 16, 64, 5*time.Millisecond)
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Duration(1+i)*time.Millisecond, cancel)
		_, err := e.QueryOptsCtx(ctx, "SELECT COUNT(*), SUM(v) FROM wide",
			QueryOptions{Parallel: true, Parallelism: 8, BatchSize: 16})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled (or completion)", i, err)
		}
		waitGoroutineBaseline(t, base)
	}
}

// TestCancelMidRemoteFetchNoGoroutineLeak cancels while remote fetches
// are blocked inside netsim transfers under fault injection and
// wall-clock retry backoff — the leak-prone window E15 closes: backoff
// sleeps and blocked transfers must both observe ctx.Done().
func TestCancelMidRemoteFetchNoGoroutineLeak(t *testing.T) {
	e := slowFanOutFederation(t, 8, 32, 10*time.Millisecond)
	for i, name := range e.Sources() {
		src, _ := e.Source(name)
		src.Link().SetFaultProfile(&netsim.FaultProfile{Seed: int64(7 + i), FailureRate: 0.3})
	}
	qo := QueryOptions{
		Parallel: true, Parallelism: 4,
		Retry: exec.RetryPolicy{
			Attempts: 4, BaseBackoff: 50 * time.Millisecond,
			CapBackoff: 200 * time.Millisecond, SleepBackoff: true,
		},
	}
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		// Cancel at a random point: sometimes mid-transfer, sometimes
		// mid-backoff, sometimes before the first batch is pulled.
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Duration(rng.Intn(12))*time.Millisecond, cancel)
		start := time.Now()
		_, err := e.QueryOptsCtx(ctx, "SELECT v FROM wide", qo)
		elapsed := time.Since(start)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) && !exec.Retryable(err) {
			t.Fatalf("run %d: unexpected error class: %v", i, err)
		}
		if errors.Is(err, context.Canceled) && elapsed > 2*time.Second {
			t.Fatalf("run %d: cancelled query took %v to quiesce", i, elapsed)
		}
		waitGoroutineBaseline(t, base)
	}
}

// TestDeadlineQuiescesGoroutines runs the unified-deadline path: the
// engine derives one context for plan + fetch + exec, so an expired
// deadline aborts blocked transfers and joins all workers.
func TestDeadlineQuiescesGoroutines(t *testing.T) {
	e := slowFanOutFederation(t, 12, 64, 20*time.Millisecond)
	base := runtime.NumGoroutine()
	res, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide",
		QueryOptions{Parallel: true, Parallelism: 8, Deadline: 3 * time.Millisecond})
	if err == nil {
		t.Fatal("query must miss a 3ms deadline against 20ms blocking links")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("execution errors must still carry the Result accounting shell")
	}
	waitGoroutineBaseline(t, base)
}

// TestCancelQueryHandle drives cancellation through the in-flight
// registry the way httpapi's POST /queries/cancel does: find the query
// by ID while it runs, cancel it, and observe both the context error and
// a clean goroutine baseline.
func TestCancelQueryHandle(t *testing.T) {
	e := slowFanOutFederation(t, 16, 64, 20*time.Millisecond)
	base := runtime.NumGoroutine()

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.QueryOptsCtx(context.Background(), "SELECT SUM(v) FROM wide", QueryOptions{Parallel: true})
		done <- outcome{res, err}
	}()

	// Find the in-flight entry and use its cancel handle.
	var canceled bool
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if qs := e.InflightQueries(); len(qs) > 0 {
			if qs[0].SQL() == "" {
				t.Error("in-flight entry lost its statement text")
			}
			if qs[0].Elapsed() < 0 {
				t.Error("in-flight elapsed went backwards")
			}
			canceled = e.CancelQuery(qs[0].ID())
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	out := <-done
	if canceled {
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("cancelled via handle, err = %v, want context.Canceled", out.err)
		}
	} else if out.err != nil {
		// The query won the race and finished before we saw it.
		t.Fatalf("query finished first but errored: %v", out.err)
	}
	if e.CancelQuery(1 << 62) {
		t.Error("CancelQuery invented an unknown query")
	}
	if n := len(e.InflightQueries()); n != 0 {
		t.Errorf("in-flight registry still holds %d entries", n)
	}
	waitGoroutineBaseline(t, base)
}

// TestE15CancelStorm is the -race stress test `make check` runs: many
// concurrent clients issuing queries and cancelling at random offsets
// while others run to completion. Nothing may deadlock, leak, or
// misreport an error class.
func TestE15CancelStorm(t *testing.T) {
	e := slowFanOutFederation(t, 8, 32, 2*time.Millisecond)
	base := runtime.NumGoroutine()

	const clients = 64
	queriesPer := 4
	if testing.Short() {
		queriesPer = 2
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients*queriesPer)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for q := 0; q < queriesPer; q++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(2) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(8))*time.Millisecond, cancel)
				}
				res, err := e.QueryOptsCtx(ctx, "SELECT COUNT(*) FROM wide",
					QueryOptions{Parallel: true, Parallelism: 4, BatchSize: 8})
				cancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						errCh <- fmt.Errorf("client %d query %d: %w", c, q, err)
						return
					}
					continue
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != 8*32 {
					errCh <- fmt.Errorf("client %d query %d: wrong answer %v", c, q, res.Rows)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	waitGoroutineBaseline(t, base)
}

// TestQueryTraceAccountsFetches pins the E15 observability acceptance
// criterion: with Trace set, the span tree accounts for every remote
// fetch, and the per-fetch virtual link time is non-zero even though the
// engine never slept (virtual time).
func TestQueryTraceAccountsFetches(t *testing.T) {
	e := fanOutFederation(t, 6)
	res, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*), SUM(v) FROM wide",
		QueryOptions{Parallel: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Trace requested but Result.Trace is nil")
	}
	if res.QueryID == 0 {
		t.Error("QueryID not assigned")
	}
	fetches := res.Trace.Fetches()
	if len(fetches) != 6 {
		t.Fatalf("trace has %d fetch spans, want one per source (6):\n%s",
			len(fetches), res.Trace.Render())
	}
	seen := map[string]bool{}
	for _, f := range fetches {
		if f.SimTime <= 0 {
			t.Errorf("fetch %s: SimTime = %v, want > 0 under virtual links", f.Source, f.SimTime)
		}
		if f.Rows != 1 {
			t.Errorf("fetch %s: rows = %d, want 1", f.Source, f.Rows)
		}
		if f.Bytes <= 0 {
			t.Errorf("fetch %s: bytes = %d, want > 0", f.Source, f.Bytes)
		}
		if f.Attempt != 1 {
			t.Errorf("fetch %s: attempt = %d, want 1", f.Source, f.Attempt)
		}
		seen[f.Source] = true
	}
	for i := 0; i < 6; i++ {
		if name := fmt.Sprintf("s%d", i); !seen[name] {
			t.Errorf("no fetch span for source %s", name)
		}
	}
	// The span tree is query -> {plan, exec, fetches}; the exec subtree
	// mirrors the operator tree and counts its output.
	if res.Trace.Name != "query" || len(res.Trace.Children) < 2 {
		t.Fatalf("unexpected trace shape:\n%s", res.Trace.Render())
	}
	if !strings.Contains(res.Trace.Render(), "Aggregate") {
		t.Errorf("operator spans missing from trace:\n%s", res.Trace.Render())
	}

	// Tracing off: no tree is built, no cost paid.
	res2, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", QueryOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Error("Trace present without being requested")
	}
}

// TestTraceRecordsRetriedAttempts checks each retry produces its own
// fetch span with an increasing attempt number, so the trace accounts
// for every attempt, not just the winning one.
func TestTraceRecordsRetriedAttempts(t *testing.T) {
	e := fanOutFederation(t, 2)
	src, _ := e.Source("s0")
	// Fail the first transfer deterministically, then recover.
	src.Link().SetFaultProfile(&netsim.FaultProfile{Seed: 3, FailFirst: 1})
	res, err := e.QueryOptsCtx(context.Background(), "SELECT v FROM wide", QueryOptions{
		Trace: true,
		Retry: exec.RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var s0 []*exec.Span
	for _, f := range res.Trace.Fetches() {
		if f.Source == "s0" {
			s0 = append(s0, f)
		}
	}
	if len(s0) != 2 {
		t.Fatalf("s0 fetch spans = %d, want 2 (failed attempt + retry):\n%s",
			len(s0), res.Trace.Render())
	}
	if s0[0].Error == "" {
		t.Error("first attempt's span lost its error")
	}
	if s0[0].Attempt != 1 || s0[1].Attempt != 2 {
		t.Errorf("attempt numbers = %d, %d; want 1, 2", s0[0].Attempt, s0[1].Attempt)
	}
	if res.Retries["s0"] != 1 {
		t.Errorf("Retries = %v, want s0:1", res.Retries)
	}
}

// TestTraceNumbersAttemptsPerSubtree is the other half of the attempt
// contract: a plan that visits one source twice (here a self-join the CSV
// wrapper cannot execute itself, so each side is its own Remote) sends two
// different subtrees, and neither fetch is a retry of the other.
func TestTraceNumbersAttemptsPerSubtree(t *testing.T) {
	e := newFederation(t)
	res, err := e.QueryOptsCtx(context.Background(), `SELECT a.severity, b.severity FROM files.tickets a
		JOIN files.tickets b ON a.cust_id = b.cust_id`, QueryOptions{Trace: true, NoSemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	fetches := res.Trace.Fetches()
	if len(fetches) != 2 {
		t.Fatalf("fetch spans = %d, want one per join side:\n%s", len(fetches), res.Trace.Render())
	}
	for _, f := range fetches {
		if f.Source != "files" || f.Attempt != 1 || f.Error != "" {
			t.Errorf("fetch %s: attempt = %d error = %q, want a first attempt at files", f.Source, f.Attempt, f.Error)
		}
	}
	if len(res.Retries) != 0 {
		t.Errorf("Retries = %v, want none", res.Retries)
	}
}

// TestCancelledContextAtEveryEntryPoint hands an already-cancelled context
// to every way of running a statement. Each must surface the context
// error and leave nothing behind: no in-flight registration, no admission
// slot, no tenant memory charge.
func TestCancelledContextAtEveryEntryPoint(t *testing.T) {
	e := newFederation(t)
	e.EnableAdmission(AdmissionConfig{})
	const sql = "SELECT name FROM customer360 WHERE amount > 60 ORDER BY name"
	live := context.Background()
	p, err := e.Plan(live, sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := e.PrepareOpts(live, "SELECT name FROM customer360 WHERE amount > $1 ORDER BY name", DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(live)
	cancel()

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"QueryCtx", func() error { _, err := e.QueryCtx(ctx, sql); return err }},
		{"QueryOptsCtx", func() error { _, err := e.QueryOptsCtx(ctx, sql, QueryOptions{}); return err }},
		{"ExecuteCtx", func() error { _, err := e.ExecuteCtx(ctx, p, QueryOptions{}); return err }},
		{"PreparedStatement.ExecuteCtx", func() error { _, err := ps.ExecuteCtx(ctx, datum.NewInt(60)); return err }},
		{"ExplainAnalyze", func() error { _, err := e.ExplainAnalyze(ctx, sql, QueryOptions{}); return err }},
	} {
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if n := len(e.InflightQueries()); n != 0 {
			t.Errorf("%s: %d queries still registered in flight", tc.name, n)
		}
		for _, s := range e.AdmissionStats() {
			if s.Active != 0 || s.Queued != 0 || s.MemoryInUse != 0 {
				t.Errorf("%s: tenant %s holds quota after cancellation: %+v", tc.name, s.Tenant, s)
			}
		}
	}
}

// TestCancelledContextStopsSubqueryPreEvaluation: planning a statement
// with IN (SELECT ...) contacts no source under any context — the
// subquery is planned, not pre-evaluated — and a cancelled one still
// fails planning and execution with context.Canceled.
func TestCancelledContextStopsSubqueryPreEvaluation(t *testing.T) {
	e := newFederation(t)
	const sql = `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)`
	before := e.NetworkTotals().RoundTrips
	if _, err := e.Plan(context.Background(), sql, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explain(context.Background(), sql, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PrepareOpts(context.Background(), sql, DefaultQueryOptions()); err != nil {
		t.Fatal(err)
	}
	if after := e.NetworkTotals().RoundTrips; after != before {
		t.Errorf("planning made %d source round trips", after-before)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prepared, err := e.PrepareOpts(context.Background(), sql, DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Plan", func() error { _, err := e.Plan(ctx, sql, QueryOptions{}); return err }},
		{"Explain", func() error { _, err := e.Explain(ctx, sql, QueryOptions{}); return err }},
		{"PrepareOpts", func() error { _, err := e.PrepareOpts(ctx, sql, DefaultQueryOptions()); return err }},
		{"ExecuteCtx", func() error { _, err := prepared.ExecuteCtx(ctx); return err }},
		{"QueryOptsCtx", func() error { _, err := e.QueryOptsCtx(ctx, sql, DefaultQueryOptions()); return err }},
	} {
		before := e.NetworkTotals().RoundTrips
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if after := e.NetworkTotals().RoundTrips; after != before {
			t.Errorf("%s: %d source round trips under a cancelled context", tc.name, after-before)
		}
	}
}

package core

// E16 admission-control tests: quota enforcement under concurrency,
// cancel-while-queued (the quota-leak regression), overload never
// polluting the E12 fault machinery, and the mixed-tenant cancel storm
// `make check` runs under -race.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/netsim"
)

// tenantStats pulls one tenant's row out of the engine's admission
// snapshot.
func tenantStats(t *testing.T, e *Engine, name string) TenantAdmissionStats {
	t.Helper()
	for _, s := range e.AdmissionStats() {
		if s.Tenant == name {
			return s
		}
	}
	t.Fatalf("no admission stats for tenant %q", name)
	return TenantAdmissionStats{}
}

// waitTenant polls until cond holds for the tenant's stats (or fails the
// test after two seconds).
func waitTenant(t *testing.T, e *Engine, name string, what string, cond func(TenantAdmissionStats) bool) TenantAdmissionStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := tenantStats(t, e, name)
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never reached %s; stats: %+v", name, what, s)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestAdmissionQuotaEnforcement runs far more concurrent queries than the
// tenant's MaxConcurrent and asserts the active count never exceeds the
// limit while every query still completes (the excess waits its turn in
// the FIFO queue).
func TestAdmissionQuotaEnforcement(t *testing.T) {
	e := slowFanOutFederation(t, 4, 16, 2*time.Millisecond)
	e.EnableAdmission(AdmissionConfig{})
	if err := e.DefineTenant(TenantConfig{Name: "capped", MaxConcurrent: 2, MaxQueueDepth: 32}); err != nil {
		t.Fatal(err)
	}

	const clients = 12
	stop := make(chan struct{})
	var overLimit atomic.Int32
	var maxSeen atomic.Int32
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tenantStats(t, e, "capped")
			if n := int32(s.Active); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
			if s.Active > 2 {
				overLimit.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide",
				QueryOptions{Tenant: "capped", Parallel: true, Parallelism: 2})
			if err != nil {
				errCh <- err
				return
			}
			if res.Tenant != "capped" {
				errCh <- fmt.Errorf("Result.Tenant = %q, want capped", res.Tenant)
			}
		}()
	}
	wg.Wait()
	close(stop)
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if n := overLimit.Load(); n > 0 {
		t.Errorf("active count exceeded MaxConcurrent=2 in %d samples (max seen %d)", n, maxSeen.Load())
	}
	s := tenantStats(t, e, "capped")
	if s.Admitted != clients || s.Shed != 0 {
		t.Errorf("admitted=%d shed=%d, want %d/0 (queue absorbs the excess)", s.Admitted, s.Shed, clients)
	}
	if s.Active != 0 || s.Queued != 0 || s.MemoryInUse != 0 {
		t.Errorf("quota not fully returned: %+v", s)
	}
	// Some queries must actually have waited for the two slots.
	if maxSeen.Load() == 0 {
		t.Error("sampler never observed an active query; test proves nothing")
	}
}

// TestCancelWhileQueuedNoQuotaLeak is the satellite regression: a query
// cancelled while still waiting in the admission queue must come off the
// queue and leak nothing — the tenant's full quota stays usable.
func TestCancelWhileQueuedNoQuotaLeak(t *testing.T) {
	e := slowFanOutFederation(t, 2, 16, 20*time.Millisecond)
	if err := e.DefineTenant(TenantConfig{Name: "solo", MaxConcurrent: 1, MaxQueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	qo := QueryOptions{Tenant: "solo", Parallel: true}

	// Occupy the single slot with a genuinely slow query.
	holderDone := make(chan error, 1)
	go func() {
		_, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", qo)
		holderDone <- err
	}()
	waitTenant(t, e, "solo", "active=1", func(s TenantAdmissionStats) bool { return s.Active == 1 })

	// Park a second query in the queue, then kill it there through the
	// in-flight registry — the same handle httpapi's /queries/cancel
	// fires. The query registers before Acquire, so the handle reaches a
	// waiter that has not yet been granted a slot.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", qo)
		queuedDone <- err
	}()
	waitTenant(t, e, "solo", "queued=1", func(s TenantAdmissionStats) bool { return s.Queued == 1 })
	var newest uint64
	for _, q := range e.InflightQueries() {
		if q.ID() > newest {
			newest = q.ID() // query IDs are monotonic: the waiter came last
		}
	}
	if newest == 0 || !e.CancelQuery(newest) {
		t.Fatalf("could not cancel the queued query (id %d)", newest)
	}

	if err := <-queuedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query err = %v, want context.Canceled (not an overload)", err)
	}
	s := waitTenant(t, e, "solo", "queued=0", func(s TenantAdmissionStats) bool { return s.Queued == 0 })
	if s.Active != 1 {
		t.Fatalf("cancelling a queued waiter changed active = %d, want 1 (holder still runs)", s.Active)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("holder query: %v", err)
	}
	s = waitTenant(t, e, "solo", "active=0", func(s TenantAdmissionStats) bool { return s.Active == 0 })
	if s.Admitted != 1 {
		t.Errorf("admitted = %d, want 1 (the cancelled waiter was never granted)", s.Admitted)
	}

	// The regression's point: the slot the cancelled waiter would have
	// taken is not lost — a fresh query admits instantly.
	res, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", qo)
	if err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
	if res.QueueTime != 0 {
		t.Errorf("post-cancel query queued %v, want immediate admission", res.QueueTime)
	}
}

// TestShedFastNeverHangs pins the shed path's latency contract: with no
// queue configured, an arrival past MaxConcurrent is answered with a
// structured OverloadError immediately, not after the running query
// finishes.
func TestShedFastNeverHangs(t *testing.T) {
	e := slowFanOutFederation(t, 2, 16, 50*time.Millisecond)
	e.EnableAdmission(AdmissionConfig{RetryAfter: 250 * time.Millisecond})
	if err := e.DefineTenant(TenantConfig{Name: "noqueue", MaxConcurrent: 1, MaxQueueDepth: -1}); err != nil {
		t.Fatal(err)
	}
	qo := QueryOptions{Tenant: "noqueue", Parallel: true}

	holderDone := make(chan error, 1)
	go func() {
		_, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", qo)
		holderDone <- err
	}()
	waitTenant(t, e, "noqueue", "active=1", func(s TenantAdmissionStats) bool { return s.Active == 1 })

	start := time.Now()
	_, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", qo)
	elapsed := time.Since(start)
	o, ok := AsOverload(err)
	if !ok {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if o.Tenant != "noqueue" || o.Reason != "queue_full" {
		t.Errorf("overload = %+v, want tenant noqueue reason queue_full", o)
	}
	if o.RetryAfter != 250*time.Millisecond {
		t.Errorf("RetryAfter = %v, want the configured 250ms", o.RetryAfter)
	}
	if elapsed > 20*time.Millisecond {
		t.Errorf("shed took %v; rejection must not wait for the running query", elapsed)
	}
	if s := tenantStats(t, e, "noqueue"); s.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", s.Shed)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("holder query: %v", err)
	}
}

// TestOverloadStaysOutOfFaultMachinery drives a scan-budget overload
// through a query that also allows partial answers, and asserts the E12
// machinery never sees it: no breaker movement, no source-error callback,
// no silent degradation to a partial result.
func TestOverloadStaysOutOfFaultMachinery(t *testing.T) {
	e := slowFanOutFederation(t, 3, 32, time.Millisecond)
	e.SetBreakerConfig(BreakerConfig{FailureThreshold: 1})
	if err := e.DefineTenant(TenantConfig{Name: "tiny", MaxScanBytes: 1}); err != nil {
		t.Fatal(err)
	}

	var sourceErrs atomic.Int32
	_, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", QueryOptions{
		Tenant:       "tiny",
		AllowPartial: true,
		OnSourceError: func(string, int, error) {
			sourceErrs.Add(1)
		},
	})
	o, ok := AsOverload(err)
	if !ok {
		t.Fatalf("err = %v, want OverloadError (AllowPartial must not mask a quota rejection)", err)
	}
	if o.Reason != "scan_bytes" {
		t.Errorf("reason = %q, want scan_bytes", o.Reason)
	}
	if n := sourceErrs.Load(); n != 0 {
		t.Errorf("OnSourceError fired %d times on an admission rejection", n)
	}
	for src, state := range e.BreakerStates() {
		if state != BreakerClosed {
			t.Errorf("breaker %s = %s after an overload; quota rejections are not source faults", src, state)
		}
	}

	// The same federation still answers in full for an unlimited tenant:
	// the overload left no residue in breakers or source health.
	res, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", QueryOptions{})
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if res.Partial || len(res.SkippedSources) != 0 {
		t.Errorf("follow-up degraded: partial=%v skipped=%v", res.Partial, res.SkippedSources)
	}
}

// TestShedUnderFaultsAndSaturation saturates a one-slot tenant while the
// links inject real transfer faults: admitted queries exercise the full
// E12 pipeline (retries, breaker feeding), shed queries never touch it.
// Afterwards the breaker failure accounting must be attributable to
// transfer faults alone — a breaker trips only if sources actually
// failed, never because admission said no.
func TestShedUnderFaultsAndSaturation(t *testing.T) {
	e := slowFanOutFederation(t, 3, 32, 2*time.Millisecond)
	for i, name := range e.Sources() {
		src, _ := e.Source(name)
		src.Link().SetFaultProfile(&netsim.FaultProfile{Seed: int64(31 + i), FailureRate: 0.2})
	}
	e.SetBreakerConfig(BreakerConfig{FailureThreshold: 100}) // count, never trip
	e.EnableAdmission(AdmissionConfig{RetryAfter: 5 * time.Millisecond})
	if err := e.DefineTenant(TenantConfig{Name: "busy", MaxConcurrent: 1, MaxQueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	qo := QueryOptions{
		Tenant: "busy", Parallel: true,
		Retry: exec.RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond},
	}

	const clients = 16
	var wg sync.WaitGroup
	var completed, shed atomic.Int64
	errCh := make(chan error, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < 2; q++ {
				_, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*) FROM wide", qo)
				switch {
				case err == nil:
					completed.Add(1)
				case IsOverload(err):
					shed.Add(1)
				case exec.Retryable(err):
					// A source out-failed the retry budget: E12's problem,
					// not admission's — acceptable under 20% fault rate.
				default:
					errCh <- fmt.Errorf("client %d query %d: unexpected error class: %w", c, q, err)
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
	if completed.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("storm proved nothing: %d completed, %d shed (need both > 0)",
			completed.Load(), shed.Load())
	}
	// Shed queries never reached a source, so they cannot have fed a
	// breaker: with the threshold parked at 100 every breaker stays
	// closed no matter how many rejections admission issued.
	for src, state := range e.BreakerStates() {
		if state != BreakerClosed {
			t.Errorf("breaker %s = %s; only transfer faults may feed breakers", src, state)
		}
	}
	s := tenantStats(t, e, "busy")
	if s.Active != 0 || s.Queued != 0 || s.MemoryInUse != 0 {
		t.Errorf("quota not whole after the storm: %+v", s)
	}
	if s.Shed != shed.Load() {
		t.Errorf("controller counted %d sheds, clients saw %d", s.Shed, shed.Load())
	}
}

// TestE16MixedTenantCancelStorm extends the E15 storm with admission in
// the loop: gold and bronze tenants over constrained quotas, clients
// cancelling at random offsets. Acceptable outcomes per query are exactly
// {complete, context.Canceled, OverloadError}; afterwards every tenant's
// quota is whole and the goroutine count returns to baseline.
func TestE16MixedTenantCancelStorm(t *testing.T) {
	e := slowFanOutFederation(t, 8, 32, 2*time.Millisecond)
	e.EnableAdmission(AdmissionConfig{RetryAfter: 10 * time.Millisecond})
	for _, tc := range []TenantConfig{
		{Name: "gold", Priority: 3, MaxConcurrent: 4, MaxQueueDepth: 8},
		{Name: "bronze", Priority: 1, MaxConcurrent: 2, MaxQueueDepth: 4},
	} {
		if err := e.DefineTenant(tc); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	const clients = 48
	queriesPer := 4
	if testing.Short() {
		queriesPer = 2
	}
	var wg sync.WaitGroup
	var completed, shed, cancelled atomic.Int64
	errCh := make(chan error, clients*queriesPer)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := "gold"
			if c%2 == 1 {
				tenant = "bronze"
			}
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for q := 0; q < queriesPer; q++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(2) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(8))*time.Millisecond, cancel)
				}
				res, err := e.QueryOptsCtx(ctx, "SELECT COUNT(*) FROM wide",
					QueryOptions{Tenant: tenant, Parallel: true, Parallelism: 4, BatchSize: 8})
				cancel()
				switch {
				case err == nil:
					completed.Add(1)
					if len(res.Rows) != 1 || res.Rows[0][0].Int() != 8*32 {
						errCh <- fmt.Errorf("client %d query %d: wrong answer %v", c, q, res.Rows)
						return
					}
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				case IsOverload(err):
					shed.Add(1)
				default:
					errCh <- fmt.Errorf("client %d query %d: unexpected error class: %w", c, q, err)
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
	t.Logf("storm: %d completed, %d cancelled, %d shed", completed.Load(), cancelled.Load(), shed.Load())
	if completed.Load() == 0 {
		t.Error("no query completed; the storm starved everything")
	}

	for _, name := range []string{"gold", "bronze"} {
		s := waitTenant(t, e, name, "idle", func(s TenantAdmissionStats) bool {
			return s.Active == 0 && s.Queued == 0
		})
		if s.MemoryInUse != 0 {
			t.Errorf("tenant %s leaked %d bytes of in-flight memory", name, s.MemoryInUse)
		}
		if s.Admitted == 0 {
			t.Errorf("tenant %s admitted nothing", name)
		}
	}
	waitGoroutineBaseline(t, base)
}

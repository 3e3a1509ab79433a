package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// flakyRuntime fails the first failN RunRemote calls with a temporary
// fault, then succeeds.
type flakyRuntime struct {
	failN int
	calls int
	rows  []datum.Row
	err   error
}

func (rt *flakyRuntime) ScanTable(context.Context, *plan.Scan) ([]datum.Row, error) {
	return nil, fmt.Errorf("no tables")
}

func (rt *flakyRuntime) RunRemote(_ context.Context, source string, subtree plan.Node) ([]datum.Row, error) {
	rt.calls++
	if rt.calls <= rt.failN {
		if rt.err != nil {
			return nil, rt.err
		}
		return nil, &netsim.FaultError{Kind: netsim.FaultFlaky, Detail: "injected"}
	}
	return rt.rows, nil
}

// hookLog implements FetchHooks, tallying what FetchRemote reported.
type hookLog struct {
	charged time.Duration
	retries int
	errors  int
}

func (h *hookLog) ChargeBackoff(_ string, d time.Duration) { h.charged += d }
func (h *hookLog) OnRetry(string)                          { h.retries++ }
func (h *hookLog) OnSourceError(string, int, error)        { h.errors++ }

func remoteScan() plan.Node {
	return &plan.Remote{Source: "s", Child: &plan.Scan{
		Source: "s", Table: "t",
		Cols: []plan.ColMeta{{Name: "x", Kind: datum.KindInt}},
	}}
}

func TestRetryableUnwraps(t *testing.T) {
	fe := &netsim.FaultError{Kind: netsim.FaultFlaky, Detail: "x"}
	if !Retryable(fe) {
		t.Error("FaultError must be retryable")
	}
	if !Retryable(fmt.Errorf("source crm: %w", fe)) {
		t.Error("wrapped FaultError must be retryable")
	}
	if Retryable(errors.New("syntax error")) {
		t.Error("plain errors must not be retryable")
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	p := RetryPolicy{Attempts: 6, BaseBackoff: 10 * time.Millisecond, CapBackoff: 50 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 50, 50}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestFetchRemoteRetriesTransientFailures(t *testing.T) {
	rt := &flakyRuntime{failN: 2, rows: []datum.Row{{datum.NewInt(1)}}}
	hooks := &hookLog{}
	opts := Options{
		Retry: RetryPolicy{Attempts: 4, BaseBackoff: 5 * time.Millisecond},
		Hooks: hooks,
	}
	it, err := BuildBatch(context.Background(), remoteScan(), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DrainBatches(it)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if rt.calls != 3 || hooks.retries != 2 || hooks.errors != 2 {
		t.Errorf("calls=%d retries=%d errors=%d, want 3, 2 and 2", rt.calls, hooks.retries, hooks.errors)
	}
	if hooks.charged != 5*time.Millisecond+10*time.Millisecond {
		t.Errorf("backoff charged = %v", hooks.charged)
	}
}

func TestFetchRemoteDoesNotRetryPermanentErrors(t *testing.T) {
	rt := &flakyRuntime{failN: 10, err: errors.New("capability violation")}
	opts := Options{Retry: RetryPolicy{Attempts: 5}}
	if _, err := BuildBatch(context.Background(), remoteScan(), rt, opts); err == nil {
		t.Fatal("want error")
	}
	if rt.calls != 1 {
		t.Errorf("permanent error retried %d times", rt.calls-1)
	}
}

func TestFetchRemoteFallbackAfterExhaustion(t *testing.T) {
	rt := &flakyRuntime{failN: 10}
	var failedSource string
	opts := Options{
		Retry: RetryPolicy{Attempts: 2},
		OnRemoteFail: func(source string, subtree plan.Node, err error) ([]datum.Row, bool) {
			failedSource = source
			return nil, true
		},
	}
	it, err := BuildBatch(context.Background(), remoteScan(), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DrainBatches(it)
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if rt.calls != 2 || failedSource != "s" {
		t.Errorf("calls=%d failedSource=%q", rt.calls, failedSource)
	}
}

// TestFetchRemoteCancelledContextAborts is the E15 regression test for
// the backoff-vs-cancellation bug: a cancelled context must surface as
// the unwrapped context error, before any retry attempt is spent.
func TestFetchRemoteCancelledContextAborts(t *testing.T) {
	rt := &flakyRuntime{failN: 10}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Retry: RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond}}
	_, err := FetchRemote(ctx, rt, opts, &plan.Remote{Source: "s", Child: remoteScan()})
	if err != context.Canceled {
		t.Fatalf("err = %v, want unwrapped context.Canceled", err)
	}
	if rt.calls != 0 {
		t.Errorf("cancelled fetch still made %d attempts", rt.calls)
	}
}

// TestFetchRemoteBackoffAbortsOnCancel cancels a query while FetchRemote
// is sleeping out a long wall-clock backoff (SleepBackoff): the sleep
// must abort immediately instead of running out the capped window, and
// the error must be the unwrapped context error.
func TestFetchRemoteBackoffAbortsOnCancel(t *testing.T) {
	rt := &flakyRuntime{failN: 10}
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Retry: RetryPolicy{
		Attempts: 3, BaseBackoff: 30 * time.Second, CapBackoff: 30 * time.Second,
		SleepBackoff: true,
	}}
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err := FetchRemote(ctx, rt, opts, &plan.Remote{Source: "s", Child: remoteScan()})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff slept %v through the cancellation", elapsed)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want unwrapped context.Canceled", err)
	}
	if rt.calls != 1 {
		t.Errorf("calls = %d, want 1 (cancel hit during the first backoff)", rt.calls)
	}
}

// TestFetchRemoteBackoffAbortsOnDeadline is the deadline variant: an
// expiring deadline cuts the backoff short and surfaces as unwrapped
// context.DeadlineExceeded.
func TestFetchRemoteBackoffAbortsOnDeadline(t *testing.T) {
	rt := &flakyRuntime{failN: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	opts := Options{Retry: RetryPolicy{
		Attempts: 4, BaseBackoff: 30 * time.Second, SleepBackoff: true,
	}}
	start := time.Now()
	_, err := FetchRemote(ctx, rt, opts, &plan.Remote{Source: "s", Child: remoteScan()})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff slept %v through the deadline", elapsed)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want unwrapped context.DeadlineExceeded", err)
	}
}

// TestFetchRemoteCancelSkipsDegradation checks cancellation dominates the
// degradation path: a query aborted mid-retry must not fall back to
// OnRemoteFail (replicas / empty results) on its way out.
func TestFetchRemoteCancelSkipsDegradation(t *testing.T) {
	rt := &flakyRuntime{failN: 10}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	degraded := false
	opts := Options{
		Retry: RetryPolicy{Attempts: 3},
		OnRemoteFail: func(source string, subtree plan.Node, err error) ([]datum.Row, bool) {
			degraded = true
			return nil, true
		},
	}
	if _, err := FetchRemote(ctx, rt, opts, &plan.Remote{Source: "s", Child: remoteScan()}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if degraded {
		t.Error("cancelled fetch fell back to the degradation path")
	}
}

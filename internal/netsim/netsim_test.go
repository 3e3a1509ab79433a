package netsim

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTransferAccounting(t *testing.T) {
	l := NewLink(10*time.Millisecond, 1000, 1) // 1000 B/s
	d, err := l.Transfer(context.Background(), 500)
	if err != nil {
		t.Fatal(err)
	}
	want := 10*time.Millisecond + 500*time.Millisecond
	if d != want {
		t.Errorf("transfer time = %v, want %v", d, want)
	}
	m := l.Metrics()
	if m.RoundTrips != 1 || m.BytesShipped != 500 || m.WireBytes != 500 || m.SimTime != want {
		t.Errorf("metrics = %+v", m)
	}
}

func TestSerializationFactorInflation(t *testing.T) {
	l := NewLink(0, 1000, 3) // XML-style 3x inflation
	l.Transfer(context.Background(), 100)
	m := l.Metrics()
	if m.BytesShipped != 100 || m.WireBytes != 300 {
		t.Errorf("inflation: shipped=%d wire=%d", m.BytesShipped, m.WireBytes)
	}
	if m.SimTime != 300*time.Millisecond {
		t.Errorf("sim time = %v, want 300ms (inflated payload)", m.SimTime)
	}
}

func TestTransferCostDoesNotRecord(t *testing.T) {
	l := NewLink(time.Millisecond, 1000, 2)
	c := l.TransferCost(500)
	if c != time.Millisecond+time.Second {
		t.Errorf("cost = %v", c)
	}
	if l.Metrics().RoundTrips != 0 {
		t.Error("TransferCost must not record")
	}
}

func TestDefaults(t *testing.T) {
	l := NewLink(0, -1, 0)
	if l.BytesPerSecond != 1<<30 || l.SerializationFactor != 1 {
		t.Error("defaults not applied")
	}
	ll := LocalLink()
	if d, _ := ll.Transfer(context.Background(), 1<<20); d > time.Millisecond*2 {
		t.Errorf("local link should be near-free, got %v", d)
	}
}

func TestResetAndAdd(t *testing.T) {
	l := NewLink(0, 1000, 1)
	l.Transfer(context.Background(), 100)
	l.Reset()
	if l.Metrics() != (Metrics{}) {
		t.Error("reset must zero metrics")
	}
	var total Metrics
	total.Add(Metrics{RoundTrips: 1, BytesShipped: 10, WireBytes: 20, SimTime: time.Second})
	total.Add(Metrics{RoundTrips: 2, BytesShipped: 5, WireBytes: 5, SimTime: time.Second})
	if total.RoundTrips != 3 || total.BytesShipped != 15 || total.WireBytes != 25 || total.SimTime != 2*time.Second {
		t.Errorf("Add = %+v", total)
	}
	if !strings.Contains(total.String(), "trips=3") {
		t.Error("String rendering")
	}
}

func TestForcedOutageFailsTransfers(t *testing.T) {
	l := NewLink(time.Millisecond, 1000, 1)
	l.SetDown(true)
	if !l.Down() {
		t.Fatal("link should report down")
	}
	_, err := l.Transfer(context.Background(), 100)
	fe, ok := err.(*FaultError)
	if !ok || fe.Kind != FaultOutage {
		t.Fatalf("want outage FaultError, got %v", err)
	}
	if !fe.Temporary() {
		t.Error("injected faults must be Temporary")
	}
	m := l.Metrics()
	if m.Failures != 1 || m.BytesShipped != 0 || m.SimTime != time.Millisecond {
		t.Errorf("failed trip accounting = %+v", m)
	}
	l.SetDown(false)
	if _, err := l.Transfer(context.Background(), 100); err != nil {
		t.Fatalf("after outage lifts: %v", err)
	}
}

func TestFaultProfileDeterministic(t *testing.T) {
	run := func() []bool {
		l := NewLink(time.Millisecond, 1e6, 1)
		l.SetFaultProfile(&FaultProfile{Seed: 42, FailureRate: 0.3})
		out := make([]bool, 50)
		for i := range out {
			_, err := l.Transfer(context.Background(), 10)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence not deterministic at trip %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("failure rate 0.3 produced %d/%d failures", fails, len(a))
	}
}

func TestFailFirstThenRecover(t *testing.T) {
	l := NewLink(time.Millisecond, 1e6, 1)
	l.SetFaultProfile(&FaultProfile{FailFirst: 3})
	for i := 0; i < 3; i++ {
		if _, err := l.Transfer(context.Background(), 10); err == nil {
			t.Fatalf("warm-up trip %d should fail", i)
		}
	}
	if _, err := l.Transfer(context.Background(), 10); err != nil {
		t.Fatalf("trip after warm-up should succeed: %v", err)
	}
}

func TestScheduledOutageWindow(t *testing.T) {
	// 1ms latency per trip; outage scheduled for virtual time [2ms, 4ms).
	l := NewLink(time.Millisecond, 1e9, 1)
	l.SetFaultProfile(&FaultProfile{OutageAfter: 2 * time.Millisecond, OutageUntil: 4 * time.Millisecond})
	var seq []bool
	for i := 0; i < 6; i++ {
		_, err := l.Transfer(context.Background(), 1)
		seq = append(seq, err == nil)
	}
	// Trips at SimTime 0,1ms succeed; trips at 2ms,3ms fail; then recover.
	want := []bool{true, true, false, false, true, true}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("outage window sequence = %v, want %v", seq, want)
		}
	}
}

func TestTimeoutChargesSpike(t *testing.T) {
	l := NewLink(time.Millisecond, 1e9, 1)
	l.SetFaultProfile(&FaultProfile{Seed: 1, TimeoutRate: 1, SpikeLatency: 7 * time.Millisecond})
	d, err := l.Transfer(context.Background(), 10)
	fe, ok := err.(*FaultError)
	if !ok || fe.Kind != FaultTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
	if d != 8*time.Millisecond {
		t.Errorf("timeout cost = %v, want latency+spike = 8ms", d)
	}
}

func TestChargeDelay(t *testing.T) {
	l := NewLink(0, 1e9, 1)
	l.ChargeDelay(5 * time.Millisecond)
	l.ChargeDelay(-time.Millisecond) // ignored
	if m := l.Metrics(); m.SimTime != 5*time.Millisecond || m.RoundTrips != 0 {
		t.Errorf("ChargeDelay accounting = %+v", m)
	}
}

func TestConcurrentTransfers(t *testing.T) {
	l := NewLink(0, 1e6, 1)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Transfer(context.Background(), 10)
			}
		}()
	}
	wg.Wait()
	if m := l.Metrics(); m.RoundTrips != 1600 || m.BytesShipped != 16000 {
		t.Errorf("concurrent metrics = %+v", m)
	}
}

func TestSinceDelta(t *testing.T) {
	l := NewLink(0, 1e6, 2)
	l.Transfer(context.Background(), 100)
	snap := l.Metrics()
	l.Transfer(context.Background(), 300)
	l.Transfer(context.Background(), 50)
	d := l.Since(snap)
	if d.RoundTrips != 2 || d.BytesShipped != 350 || d.WireBytes != 700 {
		t.Errorf("Since delta = %+v", d)
	}
	if d.SimTime <= 0 {
		t.Errorf("Since delta SimTime = %v, want > 0", d.SimTime)
	}
	// A fresh snapshot yields a zero delta.
	if z := l.Since(l.Metrics()); z != (Metrics{}) {
		t.Errorf("zero-window delta = %+v", z)
	}
}

func TestSinceAgainstZeroSnapshotEqualsMetrics(t *testing.T) {
	l := NewLink(0, 1e6, 1)
	l.Transfer(context.Background(), 42)
	if got, want := l.Since(Metrics{}), l.Metrics(); got != want {
		t.Errorf("Since(zero) = %+v, want %+v", got, want)
	}
}

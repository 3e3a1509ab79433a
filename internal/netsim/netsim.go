// Package netsim simulates the network links between the mediator and the
// data sources. The paper's EII performance arguments (§3 Bitton, §5
// Draper) are all about how much data crosses these links and at what
// latency; the simulator makes both measurable and controllable.
//
// A Link has a round-trip latency, a bandwidth, and a serialization factor
// (the "convert to XML and triple the size" effect from §3 is
// SerializationFactor=3). Transfers accumulate into Metrics; virtual time
// accumulates into the link's clock so experiments can report latencies
// without actually sleeping.
package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultKind classifies an injected transfer failure.
type FaultKind string

// Fault kinds.
const (
	// FaultOutage is a scheduled or forced outage: every transfer fails
	// until the outage lifts.
	FaultOutage FaultKind = "outage"
	// FaultTimeout is an injected timeout: the link charges a latency
	// spike and then gives up on the round trip.
	FaultTimeout FaultKind = "timeout"
	// FaultFlaky is a transient per-round-trip failure (dropped
	// connection, 5xx from the wrapper, ...).
	FaultFlaky FaultKind = "flaky"
)

// FaultError is the error a failed Transfer returns. All injected faults
// are Temporary: a retry may succeed once the fault condition passes.
type FaultError struct {
	Kind   FaultKind
	Detail string
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("netsim: transfer failed (%s): %s", e.Kind, e.Detail)
}

// Temporary marks the failure as retryable.
func (e *FaultError) Temporary() bool { return true }

// FaultProfile configures deterministic, seedable fault injection on a
// link. The zero value injects nothing.
type FaultProfile struct {
	// Seed seeds the per-link fault RNG, making every failure sequence
	// reproducible.
	Seed int64
	// FailureRate is the per-round-trip probability of a transient
	// failure (FaultFlaky).
	FailureRate float64
	// TimeoutRate is the per-round-trip probability of an injected
	// timeout (FaultTimeout): the link charges SpikeLatency and fails.
	TimeoutRate float64
	// SpikeLatency is the extra virtual time a timed-out round trip
	// costs before failing; zero defaults to 10x the link latency.
	SpikeLatency time.Duration
	// OutageAfter/OutageUntil schedule an outage window on the link's
	// virtual clock: transfers starting at SimTime in [OutageAfter,
	// OutageUntil) fail with FaultOutage. Zero values disable the window.
	OutageAfter time.Duration
	OutageUntil time.Duration
	// FailFirst makes the first N transfers fail (flaky-then-recover
	// mode: the source comes up slowly but works after a few retries).
	FailFirst int
}

// Link models one mediator<->source connection.
type Link struct {
	mu sync.Mutex
	// Latency is charged once per round trip (request + first byte).
	Latency time.Duration
	// BytesPerSecond is the link throughput.
	BytesPerSecond float64
	// SerializationFactor inflates the logical payload size; 1 means the
	// wire format is as compact as the engine's row estimate, 3 models
	// the XML inflation the paper describes.
	SerializationFactor float64
	// RealSleep makes Transfer actually block for the simulated
	// duration (capped at MaxSleep), so wall-clock measurements expose
	// inter-source parallelism. Off by default: experiments usually
	// read the virtual clock instead.
	RealSleep bool
	// MaxSleep caps one blocking transfer; zero means 50ms.
	MaxSleep time.Duration

	fault     *FaultProfile
	rng       *rand.Rand
	down      bool
	transfers int64
	metrics   Metrics
}

// Metrics accumulates transfer accounting for a link or a whole federation.
type Metrics struct {
	RoundTrips   int64
	BytesShipped int64         // logical bytes before serialization inflation
	WireBytes    int64         // bytes after inflation; what the link carried
	SimTime      time.Duration // virtual time spent on the link
	Failures     int64         // round trips that failed (injected or forced)
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.RoundTrips += other.RoundTrips
	m.BytesShipped += other.BytesShipped
	m.WireBytes += other.WireBytes
	m.SimTime += other.SimTime
	m.Failures += other.Failures
}

// Sub subtracts other from m (for before/after deltas).
func (m *Metrics) Sub(other Metrics) {
	m.RoundTrips -= other.RoundTrips
	m.BytesShipped -= other.BytesShipped
	m.WireBytes -= other.WireBytes
	m.SimTime -= other.SimTime
	m.Failures -= other.Failures
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	s := fmt.Sprintf("trips=%d shipped=%dB wire=%dB time=%s",
		m.RoundTrips, m.BytesShipped, m.WireBytes, m.SimTime)
	if m.Failures > 0 {
		s += fmt.Sprintf(" failures=%d", m.Failures)
	}
	return s
}

// NewLink builds a link. Non-positive bandwidth or serialization factors
// default to sane values (1 GB/s, factor 1).
func NewLink(latency time.Duration, bytesPerSecond, serializationFactor float64) *Link {
	if bytesPerSecond <= 0 {
		bytesPerSecond = 1 << 30
	}
	if serializationFactor <= 0 {
		serializationFactor = 1
	}
	return &Link{Latency: latency, BytesPerSecond: bytesPerSecond, SerializationFactor: serializationFactor}
}

// LocalLink returns a zero-cost link for co-located execution (the
// warehouse's local scans).
func LocalLink() *Link { return NewLink(0, 0, 0) }

// SetFaultProfile installs (or, with nil, removes) fault injection on the
// link. The profile is copied; the failure sequence is determined entirely
// by the profile's seed and the order of transfers.
func (l *Link) SetFaultProfile(p *FaultProfile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p == nil {
		l.fault, l.rng = nil, nil
		return
	}
	cp := *p
	l.fault = &cp
	l.rng = rand.New(rand.NewSource(cp.Seed))
	l.transfers = 0
}

// SetDown forces (or lifts) an outage on the link, independent of any
// fault profile. Every transfer fails while the link is down.
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = down
}

// Down reports whether the link is in a forced outage.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// ChargeDelay adds pure waiting time (e.g. retry backoff) to the link's
// virtual clock without moving any bytes.
func (l *Link) ChargeDelay(d time.Duration) {
	if d <= 0 {
		return
	}
	l.mu.Lock()
	l.metrics.SimTime += d
	l.mu.Unlock()
}

// injectFault decides (under l.mu) whether this round trip fails and
// returns the failure plus the virtual time it still cost.
func (l *Link) injectFault() (*FaultError, time.Duration) {
	if l.down {
		return &FaultError{Kind: FaultOutage, Detail: "link forced down"}, l.Latency
	}
	p := l.fault
	if p == nil {
		return nil, 0
	}
	if p.FailFirst > 0 && l.transfers <= int64(p.FailFirst) {
		return &FaultError{Kind: FaultFlaky,
			Detail: fmt.Sprintf("warm-up failure %d/%d", l.transfers, p.FailFirst)}, l.Latency
	}
	if p.OutageUntil > p.OutageAfter &&
		l.metrics.SimTime >= p.OutageAfter && l.metrics.SimTime < p.OutageUntil {
		return &FaultError{Kind: FaultOutage,
			Detail: fmt.Sprintf("scheduled outage [%s,%s)", p.OutageAfter, p.OutageUntil)}, l.Latency
	}
	if p.TimeoutRate > 0 && l.rng.Float64() < p.TimeoutRate {
		spike := p.SpikeLatency
		if spike <= 0 {
			spike = 10 * l.Latency
		}
		return &FaultError{Kind: FaultTimeout,
			Detail: fmt.Sprintf("no response within %s", l.Latency+spike)}, l.Latency + spike
	}
	if p.FailureRate > 0 && l.rng.Float64() < p.FailureRate {
		return &FaultError{Kind: FaultFlaky, Detail: "connection dropped"}, l.Latency
	}
	return nil, 0
}

// Transfer charges one round trip carrying the given logical payload
// and returns the virtual time it took. With RealSleep set it also blocks
// for that duration (capped), so concurrent transfers over different links
// overlap in wall-clock time the way real federated fetches do; the block
// aborts early — returning ctx.Err() — when the query's context is
// cancelled. A transfer starting on an already-cancelled context fails
// immediately without charging the link.
//
// When fault injection is configured (SetFaultProfile / SetDown), a round
// trip may fail: the link charges the latency it still cost (plus the
// spike for timeouts), counts the failure, and returns a *FaultError. No
// payload bytes are accounted for a failed trip.
func (l *Link) Transfer(ctx context.Context, logicalBytes int) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.transfers++
	if ferr, cost := l.injectFault(); ferr != nil {
		l.metrics.RoundTrips++
		l.metrics.Failures++
		l.metrics.SimTime += cost
		sleep := l.RealSleep
		maxSleep := l.MaxSleep
		l.mu.Unlock()
		if err := l.maybeSleep(ctx, sleep, maxSleep, cost); err != nil {
			return cost, err
		}
		return cost, ferr
	}
	wire := int64(float64(logicalBytes) * l.SerializationFactor)
	d := l.Latency + time.Duration(float64(wire)/l.BytesPerSecond*float64(time.Second))
	l.metrics.RoundTrips++
	l.metrics.BytesShipped += int64(logicalBytes)
	l.metrics.WireBytes += wire
	l.metrics.SimTime += d
	sleep := l.RealSleep
	maxSleep := l.MaxSleep
	l.mu.Unlock()
	if err := l.maybeSleep(ctx, sleep, maxSleep, d); err != nil {
		return d, err
	}
	return d, nil
}

// maybeSleep blocks for min(d, maxSleep) when sleep is set, waking early
// with ctx.Err() on cancellation. The virtual clock has already been
// charged by the caller; only the wall-clock wait is interruptible.
func (l *Link) maybeSleep(ctx context.Context, sleep bool, maxSleep, d time.Duration) error {
	if !sleep {
		return nil
	}
	if maxSleep <= 0 {
		maxSleep = 50 * time.Millisecond
	}
	if d > maxSleep {
		d = maxSleep
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TransferCost prices a hypothetical transfer without recording it; the
// optimizer's cost model uses this.
func (l *Link) TransferCost(logicalBytes int64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	wire := float64(logicalBytes) * l.SerializationFactor
	return l.Latency + time.Duration(wire/l.BytesPerSecond*float64(time.Second))
}

// Metrics returns a snapshot of the accumulated accounting.
func (l *Link) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.metrics
}

// Since reports the accounting accumulated after prev was snapshotted:
// the delta between the link's current metrics and prev. It lets callers
// scope measurements (one query, one experiment phase) to a window without
// resetting the link, which would race with concurrent users.
func (l *Link) Since(prev Metrics) Metrics {
	m := l.Metrics()
	m.Sub(prev)
	return m
}

// Reset zeroes the accounting.
func (l *Link) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = Metrics{}
}

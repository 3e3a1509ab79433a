package core

// This file holds the E16 admission-control layer: the arbiter that stands
// between many concurrent consumers and the engine when demand exceeds
// capacity. Tenants declare limits (concurrent queries, in-flight batch
// memory, scanned bytes); every execution Acquires a slot on entry and
// Releases it on every exit path. Excess arrivals wait in a bounded FIFO
// queue per tenant; arrivals past the queue bound — or past the global
// high-water marks — are shed immediately with a structured OverloadError
// (httpapi answers 429 + Retry-After), never hung. Cancelling a query
// that is still waiting in the queue removes it and frees its place.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/netsim"
)

// DefaultTenant is the tenant queries run under when QueryOptions.Tenant
// is empty; unknown tenant names also fall back to its bucket, so an
// unregistered client cannot mint itself fresh quota.
const DefaultTenant = "default"

// TenantConfig declares one tenant's admission limits.
type TenantConfig struct {
	// Name identifies the tenant (case-insensitive).
	Name string
	// Priority weights the tenant's share of the morsel worker pool under
	// contention (see exec.Governor). Zero means 1.
	Priority int
	// MaxConcurrent caps the tenant's simultaneously executing queries.
	// Zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueueDepth bounds the tenant's admission wait queue; an arrival
	// that finds the queue full is shed. Zero means DefaultMaxQueueDepth;
	// negative means no queue (shed as soon as MaxConcurrent is reached).
	MaxQueueDepth int
	// MaxMemoryBytes caps the tenant's summed in-flight execution-batch
	// memory across its running queries, charged per operator boundary by
	// the executor. Zero: unlimited.
	MaxMemoryBytes int64
	// MaxScanBytes caps how many bytes one query may pull from sources
	// (cumulative across fetches). Zero: unlimited.
	MaxScanBytes int64
}

// Admission defaults.
const (
	DefaultMaxConcurrent = 4
	DefaultMaxQueueDepth = 16
)

// AdmissionConfig tunes the controller globally.
type AdmissionConfig struct {
	// QueueHighWater sheds new arrivals once the total queued across all
	// tenants reaches it, regardless of per-tenant headroom. Zero means
	// 4 * DefaultMaxQueueDepth.
	QueueHighWater int
	// MemoryHighWater sheds new arrivals once the summed in-flight memory
	// across all tenants reaches it. Zero: no global memory gate.
	MemoryHighWater int64
	// RetryAfter is the back-off hint carried in OverloadErrors (httpapi's
	// Retry-After header). Zero means time.Second.
	RetryAfter time.Duration
	// WorkerCapacity is the morsel worker pool the priority governor
	// divides between running queries. Zero means GOMAXPROCS.
	WorkerCapacity int
}

func (c AdmissionConfig) queueHighWater() int {
	if c.QueueHighWater <= 0 {
		return 4 * DefaultMaxQueueDepth
	}
	return c.QueueHighWater
}

func (c AdmissionConfig) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return time.Second
	}
	return c.RetryAfter
}

// OverloadError is the structured rejection the engine answers with when
// admission sheds a query (or an admitted query exceeds its tenant's
// memory or scan budget). It is never Temporary: retrying immediately is
// exactly what an overloaded mediator must not invite, so the retry
// pipeline fails fast and the client is told when to come back.
type OverloadError struct {
	// Tenant is the bucket the query was charged against.
	Tenant string
	// Reason says which limit tripped: "queue_full", "queue_high_water",
	// "memory_high_water", "memory", or "scan_bytes".
	Reason string
	// QueueDepth is the tenant's queue length at shed time.
	QueueDepth int
	// RetryAfter hints when the client should try again.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("core: tenant %s overloaded (%s, queue depth %d); retry after %s",
		e.Tenant, e.Reason, e.QueueDepth, e.RetryAfter)
}

// IsOverload reports whether err is (or wraps) an admission OverloadError.
func IsOverload(err error) bool {
	var o *OverloadError
	return errors.As(err, &o)
}

// AsOverload unwraps err to its OverloadError, when it carries one.
func AsOverload(err error) (*OverloadError, bool) {
	var o *OverloadError
	if errors.As(err, &o) {
		return o, true
	}
	return nil, false
}

// TenantAdmissionStats is one tenant's live admission accounting, exposed
// on /healthz.
type TenantAdmissionStats struct {
	Tenant string `json:"tenant"`
	// Active is the number of currently executing queries.
	Active int `json:"active"`
	// Queued is the current admission-queue depth.
	Queued int `json:"queued"`
	// Admitted counts queries ever granted a slot (cumulative).
	Admitted int64 `json:"admitted"`
	// Shed counts arrivals rejected with an OverloadError (cumulative).
	Shed int64 `json:"shed"`
	// MemoryInUse is the tenant's in-flight execution-batch memory.
	MemoryInUse int64 `json:"memoryInUse"`
	// ScannedBytes is the cumulative bytes the tenant's queries pulled
	// from sources.
	ScannedBytes int64 `json:"scannedBytes"`
}

// tenantState is one tenant's bucket: limits plus live accounting. The
// controller's lock guards active/queue/counters; mem and scanned are
// atomics because the executor charges them from exchange workers without
// taking the admission lock.
type tenantState struct {
	cfg     TenantConfig
	active  int
	queue   []*admissionWaiter
	granted int64
	shed    int64
	mem     atomic.Int64
	scanned atomic.Int64
}

func (ts *tenantState) maxConcurrent() int {
	if ts.cfg.MaxConcurrent <= 0 {
		return DefaultMaxConcurrent
	}
	return ts.cfg.MaxConcurrent
}

func (ts *tenantState) maxQueueDepth() int {
	if ts.cfg.MaxQueueDepth < 0 {
		return 0
	}
	if ts.cfg.MaxQueueDepth == 0 {
		return DefaultMaxQueueDepth
	}
	return ts.cfg.MaxQueueDepth
}

func (ts *tenantState) priority() int {
	if ts.cfg.Priority <= 0 {
		return 1
	}
	return ts.cfg.Priority
}

// admissionWaiter is one query parked in a tenant's FIFO queue. grant
// closes ready with granted set; a cancelled waiter removes itself under
// the controller lock, so grant-vs-cancel races resolve to exactly one
// outcome.
type admissionWaiter struct {
	ready   chan struct{}
	granted bool
}

// admissionController arbitrates query admission across tenants.
type admissionController struct {
	mu          sync.Mutex
	cfg         AdmissionConfig
	tenants     map[string]*tenantState
	totalQueued int
}

func newAdmissionController(cfg AdmissionConfig) *admissionController {
	c := &admissionController{cfg: cfg, tenants: make(map[string]*tenantState)}
	c.tenants[DefaultTenant] = &tenantState{cfg: TenantConfig{Name: DefaultTenant}}
	return c
}

// defineTenant adds or replaces a tenant's limits.
func (c *admissionController) defineTenant(tc TenantConfig) error {
	name := strings.ToLower(strings.TrimSpace(tc.Name))
	if name == "" {
		return fmt.Errorf("core: tenant name must be non-empty")
	}
	tc.Name = name
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.tenants[name]; ok {
		ts.cfg = tc
		return nil
	}
	c.tenants[name] = &tenantState{cfg: tc}
	return nil
}

// tenant resolves a tenant name to its bucket; empty and unknown names
// share the default bucket.
func (c *admissionController) tenant(name string) *tenantState {
	name = strings.ToLower(strings.TrimSpace(name))
	if ts, ok := c.tenants[name]; ok {
		return ts
	}
	return c.tenants[DefaultTenant]
}

// globalMemory sums in-flight memory across tenants (lock held).
func (c *admissionController) globalMemoryLocked() int64 {
	var total int64
	for _, ts := range c.tenants {
		total += ts.mem.Load()
	}
	return total
}

// AdmissionSlot is one admitted query's hold on its tenant's quota. The
// executor charges batch memory through Grow/Shrink and the fetch path
// charges scanned bytes through ChargeScan; Release (idempotent, nil-safe)
// returns everything and wakes the next queued waiter.
type AdmissionSlot struct {
	c         *admissionController
	ts        *tenantState
	queueTime time.Duration
	mem       atomic.Int64 // this query's residual charge (safety net)
	scanned   atomic.Int64
	released  atomic.Bool
}

// Acquire admits a query for the named tenant, waiting in the tenant's
// FIFO queue when its concurrency limit is reached. It returns an
// *OverloadError when the queue is full or a high-water mark is crossed,
// and ctx.Err() when the caller is cancelled while waiting (the waiter is
// removed from the queue — no quota leaks). A nil controller admits
// everything (admission disabled).
func (c *admissionController) Acquire(ctx context.Context, tenant string, clock netsim.Clock) (*AdmissionSlot, error) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	ts := c.tenant(tenant)
	if ts.active < ts.maxConcurrent() && len(ts.queue) == 0 {
		ts.active++
		ts.granted++
		c.mu.Unlock()
		return &AdmissionSlot{c: c, ts: ts}, nil
	}
	// No headroom: queue, or shed when a bound is hit.
	var reason string
	switch {
	case len(ts.queue) >= ts.maxQueueDepth():
		reason = "queue_full"
	case c.totalQueued >= c.cfg.queueHighWater():
		reason = "queue_high_water"
	case c.cfg.MemoryHighWater > 0 && c.globalMemoryLocked() >= c.cfg.MemoryHighWater:
		reason = "memory_high_water"
	}
	if reason != "" {
		ts.shed++
		depth := len(ts.queue)
		c.mu.Unlock()
		return nil, &OverloadError{
			Tenant: ts.cfg.Name, Reason: reason,
			QueueDepth: depth, RetryAfter: c.cfg.retryAfter(),
		}
	}
	w := &admissionWaiter{ready: make(chan struct{})}
	ts.queue = append(ts.queue, w)
	c.totalQueued++
	c.mu.Unlock()

	start := clock.Now()
	select {
	case <-w.ready:
		return &AdmissionSlot{c: c, ts: ts, queueTime: clock.Since(start)}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// grant raced the cancellation; the slot is ours, so give it
			// straight back and wake the next waiter.
			c.grantNextLocked(ts)
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, q := range ts.queue {
			if q == w {
				ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
				c.totalQueued--
				break
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// grantNextLocked hands a just-freed execution slot to the head of the
// tenant's queue, or decrements active when nobody waits. Caller holds
// the lock; active has NOT yet been decremented.
func (c *admissionController) grantNextLocked(ts *tenantState) {
	for len(ts.queue) > 0 {
		w := ts.queue[0]
		ts.queue = ts.queue[1:]
		c.totalQueued--
		w.granted = true
		ts.granted++
		close(w.ready)
		return
	}
	ts.active--
}

// Release returns the slot's quota: residual memory charges are undone,
// the execution slot passes to the next queued waiter. Idempotent and
// safe on a nil slot, so `defer slot.Release()` works on every exit path
// including failed acquires.
func (s *AdmissionSlot) Release() {
	if s == nil || !s.released.CompareAndSwap(false, true) {
		return
	}
	// Undo any residual memory charge an aborted execution left behind
	// (operators normally shrink what they grew, but an error path may
	// die between Grow and Shrink).
	if residual := s.mem.Load(); residual != 0 {
		s.ts.mem.Add(-residual)
	}
	s.c.mu.Lock()
	s.c.grantNextLocked(s.ts)
	s.c.mu.Unlock()
}

// Tenant returns the tenant bucket the slot was charged against.
func (s *AdmissionSlot) Tenant() string {
	if s == nil {
		return ""
	}
	return s.ts.cfg.Name
}

// Priority returns the tenant's scheduler weight.
func (s *AdmissionSlot) Priority() int {
	if s == nil {
		return 1
	}
	return s.ts.priority()
}

// QueueTime returns how long the query waited for admission.
func (s *AdmissionSlot) QueueTime() time.Duration {
	if s == nil {
		return 0
	}
	return s.queueTime
}

// Grow charges n bytes of in-flight batch memory to the tenant,
// implementing exec.MemoryReservation. Crossing the tenant's memory limit
// returns an OverloadError; the charge stays in place until the aborting
// operator (or Release) shrinks it.
func (s *AdmissionSlot) Grow(n int64) error {
	if s == nil || n <= 0 {
		return nil
	}
	total := s.ts.mem.Add(n)
	s.mem.Add(n)
	if limit := s.ts.cfg.MaxMemoryBytes; limit > 0 && total > limit {
		return &OverloadError{
			Tenant: s.ts.cfg.Name, Reason: "memory",
			RetryAfter: s.c.cfg.retryAfter(),
		}
	}
	return nil
}

// Shrink returns n bytes of in-flight memory.
func (s *AdmissionSlot) Shrink(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.ts.mem.Add(-n)
	s.mem.Add(-n)
}

// ChargeScan accounts n bytes fetched from a source against the query's
// scan budget, returning an OverloadError once the tenant's MaxScanBytes
// is exceeded. The fetch itself already succeeded — the breaker has been
// fed — so a tripped budget is a quota rejection, never a source fault.
func (s *AdmissionSlot) ChargeScan(n int64) error {
	if s == nil || n <= 0 {
		return nil
	}
	s.ts.scanned.Add(n)
	total := s.scanned.Add(n)
	if limit := s.ts.cfg.MaxScanBytes; limit > 0 && total > limit {
		return &OverloadError{
			Tenant: s.ts.cfg.Name, Reason: "scan_bytes",
			RetryAfter: s.c.cfg.retryAfter(),
		}
	}
	return nil
}

// stats snapshots every tenant's accounting, sorted by name.
func (c *admissionController) stats() []TenantAdmissionStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantAdmissionStats, 0, len(c.tenants))
	for _, ts := range c.tenants {
		out = append(out, TenantAdmissionStats{
			Tenant:       ts.cfg.Name,
			Active:       ts.active,
			Queued:       len(ts.queue),
			Admitted:     ts.granted,
			Shed:         ts.shed,
			MemoryInUse:  ts.mem.Load(),
			ScannedBytes: ts.scanned.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// --- Engine surface ---

// EnableAdmission turns on admission control with the given global
// configuration. Tenants are declared with DefineTenant; queries that name
// no tenant (or an unknown one) run under the "default" bucket. Calling it
// again replaces the configuration and resets all admission state:
// in-flight queries finish against the controller that admitted them, and
// only queries that start afterwards are counted by the new one.
func (e *Engine) EnableAdmission(cfg AdmissionConfig) {
	capacity := cfg.WorkerCapacity
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	e.update(func(s *engineState) {
		s.admission = newAdmissionController(cfg)
		s.governor = exec.NewGovernor(capacity)
	})
}

// AdmissionEnabled reports whether the engine arbitrates admission.
func (e *Engine) AdmissionEnabled() bool { return e.state.Load().admission != nil }

// DefineTenant declares (or redefines) a tenant's admission limits,
// enabling admission control with default global configuration when it is
// not on yet.
func (e *Engine) DefineTenant(tc TenantConfig) error {
	if !e.AdmissionEnabled() {
		e.EnableAdmission(AdmissionConfig{})
	}
	return e.state.Load().admission.defineTenant(tc)
}

// AdmissionStats reports per-tenant admission accounting (admitted,
// queued, shed, memory in use), sorted by tenant name. Nil when admission
// is disabled.
func (e *Engine) AdmissionStats() []TenantAdmissionStats {
	return e.state.Load().admission.stats()
}

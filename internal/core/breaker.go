package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/netsim"
)

// BreakerState is the circuit-breaker state of one source.
type BreakerState string

// Breaker states.
const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the source failed too many times in a row; requests
	// fail fast without touching the link.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the open timeout elapsed; a single probe request
	// is allowed through to test recovery.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerConfig tunes the per-source circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker open. Zero defaults to 5; negative disables breakers.
	FailureThreshold int
	// OpenTimeout is how long an open breaker waits (wall clock) before
	// letting a half-open probe through. Zero defaults to 100ms.
	OpenTimeout time.Duration
}

func (c BreakerConfig) threshold() int {
	if c.FailureThreshold == 0 {
		return 5
	}
	return c.FailureThreshold
}

func (c BreakerConfig) openTimeout() time.Duration {
	if c.OpenTimeout <= 0 {
		return 100 * time.Millisecond
	}
	return c.OpenTimeout
}

// BreakerOpenError is returned for fetches rejected by an open breaker.
// It is not Temporary: retrying inside the same query would just spin on
// the open breaker, so the fetch falls through to degradation (replica or
// partial result) immediately.
type BreakerOpenError struct {
	Source string
}

// Error implements error.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("core: circuit breaker open for source %s", e.Source)
}

// breaker is one source's circuit breaker.
type breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	clock    netsim.Clock
	state    BreakerState
	failures int       // consecutive failures
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

func newBreaker(cfg BreakerConfig, clock netsim.Clock) *breaker {
	return &breaker{cfg: cfg, clock: clock, state: BreakerClosed}
}

// Allow reports whether a request may proceed; in the half-open state only
// one probe at a time is admitted.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.clock.Since(b.openedAt) < b.cfg.openTimeout() {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// Record reports the outcome of an admitted request.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.failures = 0
		b.state = BreakerClosed
		return
	}
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= b.cfg.threshold() {
		b.state = BreakerOpen
		b.openedAt = b.clock.Now()
		b.failures = 0
	}
}

// State returns the current state, applying the open-timeout transition so
// observers (healthz) see "half-open" once a probe would be admitted.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.clock.Since(b.openedAt) >= b.cfg.openTimeout() {
		return BreakerHalfOpen
	}
	return b.state
}

// SetBreakerConfig replaces the breaker configuration and resets all
// breaker state. A negative FailureThreshold disables breakers entirely.
func (e *Engine) SetBreakerConfig(cfg BreakerConfig) {
	e.update(func(s *engineState) {
		s.breakerCfg = cfg
		s.resetBreakers()
	})
	// Resetting breakers changes source availability, which changes how
	// plans place remote work; retire plans compiled under the old state.
	e.BumpCatalog()
}

// addBreaker gives the source registered under key a fresh closed breaker
// on the state's clock, unless breakers are disabled.
func (s *engineState) addBreaker(key string) {
	if s.breakerCfg.FailureThreshold >= 0 {
		s.breakers[key] = newBreaker(s.breakerCfg, s.clock)
	}
}

// resetBreakers replaces every source's breaker with a fresh one.
func (s *engineState) resetBreakers() {
	s.breakers = make(map[string]*breaker, len(s.sources))
	for key := range s.sources {
		s.addBreaker(key)
	}
}

// BreakerStates reports every registered source's breaker state (closed
// while breakers are disabled).
func (e *Engine) BreakerStates() map[string]BreakerState {
	st := e.state.Load()
	out := make(map[string]BreakerState, len(st.sources))
	for key, src := range st.sources {
		state := BreakerClosed
		if b := st.breakers[key]; b != nil {
			state = b.State()
		}
		out[src.Name()] = state
	}
	return out
}

// sourceAvailable reports whether the source's breaker currently admits
// requests (always, for a source that has none).
func (s *engineState) sourceAvailable(source string) bool {
	b := s.breakers[strings.ToLower(source)]
	return b == nil || b.State() != BreakerOpen
}

// SourceAvailable reports whether the source's breaker currently admits
// requests; the optimizer consults this before planning cooperative
// fetches against the source.
func (e *Engine) SourceAvailable(source string) bool {
	return e.state.Load().sourceAvailable(source)
}

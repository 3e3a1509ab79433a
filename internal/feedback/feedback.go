// Package feedback holds the runtime-cardinality feedback store: decaying
// per-(source, table, predicate-signature) row-count estimates observed
// during execution, plus per-source fetch-latency calibration. It is the
// adaptive half of the optimizer's statistics — catalog snapshots stay
// immutable (E13's COW versioning is untouched); observed estimates live
// here, beside the snapshot, and are consulted read-only at plan time.
//
// The store is deliberately small: an EWMA over log-cardinality per key
// (cardinality errors are multiplicative, so the blend happens in log
// space), a confidence that grows with observation count and decays with
// age, and a generation counter that advances only when an estimate
// drifts past DriftThreshold relative to what plans were last costed
// under — the plan cache compares generations to decide when cached plans
// are stale.
package feedback

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/plan"
)

// Key identifies one observed cardinality stream: a predicate signature
// over one table at one source. Sig is "" for a bare scan; see Signature.
// It is the store's index. Planners hand the store the borrowed Shape
// form; a plan carries the store's own record of the key (see
// Store.Stream), which is what executions observe.
type Key = plan.Stream

// Estimate is a point-in-time feedback estimate.
type Estimate struct {
	// Rows is the EWMA-smoothed observed cardinality.
	Rows float64
	// Confidence is in (0, 1]: how strongly the optimizer should weight
	// Rows against the static estimate. It grows with observations and
	// decays with age.
	Confidence float64
	// Observations counts how many executions fed this estimate.
	Observations int64
}

// Tuning constants. DriftThreshold is shared with the plan cache: cached
// plans are invalidated when an estimate moves this far from the value
// plans were costed under.
const (
	// DriftThreshold is the multiplicative drift (either direction) past
	// which the store's generation advances and dependent cached plans
	// are recompiled.
	DriftThreshold = 4.0
	// confHalfLife halves an estimate's confidence for every interval of
	// silence; stale observations fade instead of misleading the planner
	// forever.
	confHalfLife = 5 * time.Minute
	// confFloor: below this decayed confidence a Lookup reports a miss.
	confFloor = 0.05
	// ewmaWeight is the weight of the newest observation in the
	// log-space cardinality EWMA.
	ewmaWeight = 0.5
	// latWeight is the weight of the newest observation in the
	// per-source latency-ratio EWMA.
	latWeight = 0.3
	// latMin/latMax clamp the network factor so one outlier fetch cannot
	// swing source choice arbitrarily.
	latMin = 0.25
	latMax = 4.0
)

type cardObs struct {
	// key is the stream's record that plans point at (see Stream).
	key     Key
	logRows float64 // EWMA of log1p(observed rows)
	n       int64   // 0: a plan asked for the stream, nothing observed it yet
	// published is the log-rows value the current generation was issued
	// under; drift is measured against it.
	published float64
	updated   time.Time
}

type latObs struct {
	ratio float64 // EWMA of observed/predicted transfer time
	n     int64
}

// Store accumulates execution feedback. It is safe for concurrent use:
// many queries observe and plan at once.
type Store struct {
	clock netsim.Clock
	gen   atomic.Uint64

	mu    sync.Mutex
	cards map[Key]*cardObs
	lat   map[string]*latObs
}

// NewStore creates an empty feedback store on the given clock (nil: wall
// clock). The clock only ages confidence; it is never used for identity.
func NewStore(clock netsim.Clock) *Store {
	if clock == nil {
		clock = netsim.Wall
	}
	return &Store{
		clock: clock,
		cards: make(map[Key]*cardObs),
		lat:   make(map[string]*latObs),
	}
}

// Generation returns the drift generation: it advances every time an
// estimate moves past DriftThreshold from the value it was last published
// under. Consumers (the plan cache) compare generations cheaply instead
// of diffing estimates.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Stream returns the store's record of a shape's stream, making one, with
// nothing observed, the first time it is asked for: the optimizer records
// it on the Remote whose fetch feeds the stream, so an execution observes
// it without rendering the shape, and every plan that feeds one stream
// shares one copy of its strings. Only the first call for a stream copies
// the shape.
func (s *Store) Stream(k Shape) *Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.cards[Key{Source: k.Source, Table: k.Table, Sig: string(k.Sig)}] // no copy: a lookup
	if o == nil {
		o = &cardObs{key: k.Key()}
		s.cards[o.key] = o
	}
	return &o.key
}

// Observe records one execution's actual cardinality for a stream.
// plannedRows is the estimate the current plan was costed under (static or
// blended); the first observation publishes against it, so a plan that was
// wildly mispredicted bumps the generation immediately, and later ones
// ignore it.
func (s *Store) Observe(k Key, observedRows int64, plannedRows float64) {
	if observedRows < 0 {
		return
	}
	now := s.clock.Now()
	lobs := math.Log1p(float64(observedRows))
	if plannedRows < 0 {
		plannedRows = 0
	}
	lplan := math.Log1p(plannedRows)

	bump := false
	s.mu.Lock()
	o := s.cards[k]
	if o == nil {
		o = &cardObs{key: k}
		s.cards[k] = o
	}
	if o.n == 0 {
		o.logRows, o.n, o.published, o.updated = lobs, 1, lplan, now
	} else {
		o.logRows = (1-ewmaWeight)*o.logRows + ewmaWeight*lobs
		o.n++
		o.updated = now
	}
	if diff := math.Abs(o.logRows - o.published); diff >= math.Log(DriftThreshold) {
		o.published = o.logRows
		bump = true
	}
	s.mu.Unlock()
	if bump {
		s.gen.Add(1)
	}
}

// Lookup returns the decayed feedback estimate for a shape, without
// copying it. ok is false when the shape was never observed or its
// confidence has decayed below the floor.
func (s *Store) Lookup(k Shape) (Estimate, bool) {
	now := s.clock.Now()
	s.mu.Lock()
	o := s.cards[Key{Source: k.Source, Table: k.Table, Sig: string(k.Sig)}]
	if o == nil || o.n == 0 {
		s.mu.Unlock()
		return Estimate{}, false
	}
	est := Estimate{
		Rows:         math.Expm1(o.logRows),
		Confidence:   float64(o.n) / float64(o.n+2),
		Observations: o.n,
	}
	age := now.Sub(o.updated)
	s.mu.Unlock()
	if age > 0 {
		est.Confidence *= math.Exp2(-float64(age) / float64(confHalfLife))
	}
	if est.Confidence < confFloor {
		return Estimate{}, false
	}
	return est, true
}

// Len returns how many cardinality streams the store has observed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, o := range s.cards {
		if o.n > 0 {
			n++
		}
	}
	return n
}

// ObserveLatency records one successful fetch's observed link time against
// the optimizer's predicted transfer cost for the same bytes. The ratio
// feeds NetworkFactor.
func (s *Store) ObserveLatency(source string, predicted, observed time.Duration) {
	if predicted <= 0 || observed <= 0 {
		return
	}
	r := float64(observed) / float64(predicted)
	if r < latMin {
		r = latMin
	}
	if r > latMax {
		r = latMax
	}
	s.mu.Lock()
	o := s.lat[source]
	if o == nil {
		s.lat[source] = &latObs{ratio: r, n: 1}
	} else {
		o.ratio = (1-latWeight)*o.ratio + latWeight*r
		o.n++
	}
	s.mu.Unlock()
}

// NetworkFactor returns the multiplicative correction the optimizer should
// apply to a source's modelled transfer cost: >1 when the source has been
// running slower than the link model predicts, <1 when faster, 1 when
// nothing has been observed. Clamped to [latMin, latMax].
func (s *Store) NetworkFactor(source string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.lat[source]
	if o == nil {
		return 1
	}
	return o.ratio
}

package exec

// The cardinality ledger is the one per-operator record of an execution:
// per operator and per successful fetch, how many rows actually flowed,
// against what the optimizer predicted. It exists so the engine can feed
// runtime cardinalities back into the feedback store (and decide to
// re-plan mid-query) without requiring ?trace=1, so it stays light — a few
// ints per operator, no allocation, no lock on the pull path — and every
// surface that reports per-operator numbers (explain, analyze, the trace's
// operator spans, estimate-error counts) renders from it.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/plan"
)

// OpCard is one operator's record. The operator's boundary guard
// (guardBatchIter) owns it and is its only writer: Node and Est are set at
// build time, Est from the estimate Node carries, everything else by the
// single goroutine pulling the operator, lock-free. It may therefore only
// be read once the attempt's goroutines have joined — after the drain
// returned and Scratch.WaitBorrowers waited out abandoned prefetches.
type OpCard struct {
	// Node is the plan node this boundary wrapped.
	Node plan.Node
	// Est is the optimizer's row estimate for the node; -1 when the node
	// carries none.
	Est int64
	// Rows and Batches count what actually flowed through the boundary.
	Rows    int64
	Batches int64
	// First and Last stamp the start of the first pull and the return of
	// the latest one on the QueryTracer's clock; zero when the query runs
	// without a tracer or the operator was never pulled.
	First, Last time.Time
}

// FetchCard is one successful remote fetch's cardinality record. Failed
// attempts never produce one — FetchRemote only records the attempt that
// succeeded — so retried fetches contribute exactly the successful
// attempt's rows to feedback.
type FetchCard struct {
	// Fetch is the Remote fetched: for a semi-join's reduced fetch, one
	// the executor built over the reduced subtree. Its Stream and
	// estimate are what feedback observes.
	Fetch *plan.Remote
	Rows  int64
}

// CardLedger accumulates OpCards and FetchCards for one query execution
// attempt. Operators are appended at build time (which may happen inside
// prefetch goroutines) and fetches at fetch time, so both paths lock.
type CardLedger struct {
	mu      sync.Mutex
	ops     []*OpCard
	fetches []FetchCard
}

var cardLedgerPool = sync.Pool{New: func() any { return &CardLedger{} }}

// GetCardLedger returns a pooled, empty ledger.
func GetCardLedger() *CardLedger { return cardLedgerPool.Get().(*CardLedger) }

// PutCardLedger resets and recycles a ledger. Callers must not retain any
// OpCard pointers past this call.
func PutCardLedger(l *CardLedger) {
	if l == nil {
		return
	}
	l.Reset()
	cardLedgerPool.Put(l)
}

// Reset clears the ledger for reuse (the engine resets between re-plan
// attempts so each attempt's counts stand alone).
func (l *CardLedger) Reset() {
	l.mu.Lock()
	for i := range l.ops {
		l.ops[i] = nil
	}
	l.ops = l.ops[:0]
	l.fetches = l.fetches[:0]
	l.mu.Unlock()
}

// addOp lists a guard's record; the guard keeps ownership.
func (l *CardLedger) addOp(c *OpCard) {
	l.mu.Lock()
	l.ops = append(l.ops, c)
	l.mu.Unlock()
}

// recordFetch appends one successful fetch's row count.
func (l *CardLedger) recordFetch(r *plan.Remote, rows int64) {
	l.mu.Lock()
	l.fetches = append(l.fetches, FetchCard{Fetch: r, Rows: rows})
	l.mu.Unlock()
}

// Ops returns the operator records. Only call after execution has fully
// drained (all query goroutines joined): the records are written lock-free
// by their operators.
func (l *CardLedger) Ops() []*OpCard {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}

// ByNode indexes the operator records by plan node, under the same
// contract as Ops. It is what the renderers walk a plan tree against: a
// node missing from the map never executed in this attempt.
func (l *CardLedger) ByNode() map[plan.Node]*OpCard {
	ops := l.Ops()
	m := make(map[plan.Node]*OpCard, len(ops))
	for _, c := range ops {
		m[c.Node] = c
	}
	return m
}

// Fetches returns the successful-fetch records under the same contract as
// Ops.
func (l *CardLedger) Fetches() []FetchCard {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetches
}

// ReplanPolicy arms the mid-query re-plan tripwire: when an operator's
// actual row count exceeds Factor times its estimate (and at least
// MinRows, so toy inputs cannot trip), the operator's NextBatch returns a
// *ReplanError instead of the batch. The zero value disarms the tripwire.
type ReplanPolicy struct {
	// Factor is the underestimate multiple that trips (≥10 per the
	// adaptive protocol). 0 disables.
	Factor int64
	// MinRows is the floor below which no trip fires regardless of the
	// ratio: fabricated default estimates over small tables misestimate
	// wildly in relative terms while being off by only a few hundred rows
	// that cost nothing to process.
	MinRows int64
}

func (p ReplanPolicy) enabled() bool { return p.Factor > 0 }

// ReplanError aborts execution at an exchange batch boundary because an
// operator's observed cardinality blew through its estimate. The engine
// catches it, feeds the ledger back into the feedback store, re-optimizes,
// and re-executes; it is not a query failure.
type ReplanError struct {
	// Node is the operator whose cardinality tripped.
	Node plan.Node
	// Est and Actual are the estimated and observed row counts at the
	// moment of the trip (Actual keeps growing if execution continues, but
	// the trip fires on the first crossing batch).
	Est    int64
	Actual int64
}

func (e *ReplanError) Error() string {
	return fmt.Sprintf("exec: cardinality misestimate at %s: estimated %d rows, saw %d — replan requested",
		e.Node.Describe(), e.Est, e.Actual)
}

package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/plan"
)

// Span is one node of a query's trace tree. Offsets and durations are
// measured on the engine's clock: wall time under netsim.Wall, virtual
// time under a VirtualClock (where most spans collapse to zero and the
// interesting latency shows up in SimTime instead). Fetch spans carry the
// per-attempt link accounting — virtual link time, wire bytes, rows — so
// a traced query accounts for every round trip it caused.
type Span struct {
	// Name identifies the span: "query", "plan", "exec", "fetch", or an
	// operator's Describe() line.
	Name string `json:"name"`
	// Source is the source a fetch span talked to.
	Source string `json:"source,omitempty"`
	// Attempt numbers a source's fetch attempts from 1; attempts > 1 are
	// retries.
	Attempt int `json:"attempt,omitempty"`
	// Start is the span's offset from the start of the query.
	Start time.Duration `json:"start"`
	// Duration is the span's extent on the engine clock.
	Duration time.Duration `json:"duration"`
	// SimTime is the virtual link time a fetch charged (latency +
	// serialization + backoff); non-zero even when the clock is virtual.
	SimTime time.Duration `json:"simTime,omitempty"`
	// Rows / Bytes / Batches count what flowed through the span: operator
	// output rows and batches, or fetch result rows and wire bytes.
	Rows    int64 `json:"rows,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	Batches int64 `json:"batches,omitempty"`
	// Error records a failed fetch attempt's error text.
	Error string `json:"error,omitempty"`
	// Children are the nested spans.
	Children []*Span `json:"children,omitempty"`
}

// Render formats the span tree indented, one span per line.
func (s *Span) Render() string {
	var b strings.Builder
	var walk func(*Span, int)
	walk = func(sp *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Name)
		if sp.Source != "" {
			fmt.Fprintf(&b, " %s", sp.Source)
		}
		if sp.Attempt > 1 {
			fmt.Fprintf(&b, " (attempt %d)", sp.Attempt)
		}
		fmt.Fprintf(&b, " [start=%s dur=%s", sp.Start, sp.Duration)
		if sp.SimTime > 0 {
			fmt.Fprintf(&b, " sim=%s", sp.SimTime)
		}
		if sp.Rows > 0 {
			fmt.Fprintf(&b, " rows=%d", sp.Rows)
		}
		if sp.Batches > 0 {
			fmt.Fprintf(&b, " batches=%d", sp.Batches)
		}
		if sp.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", sp.Bytes)
		}
		b.WriteByte(']')
		if sp.Error != "" {
			fmt.Fprintf(&b, " error=%q", sp.Error)
		}
		b.WriteByte('\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}

// Fetches returns every fetch span in the tree, in record order.
func (s *Span) Fetches() []*Span {
	var out []*Span
	var walk func(*Span)
	walk = func(sp *Span) {
		if sp.Name == "fetch" {
			out = append(out, sp)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(s)
	return out
}

// QueryTracer collects the fetch spans of one query while it executes and
// lends its clock to the operator boundaries, whose guards stamp each
// OpCard's first and last pull on it. Finish materializes both into a Span
// tree. RecordFetch is safe for concurrent use — prefetch goroutines
// record through the same tracer; the operator half has no state here at
// all: it lives in the CardLedger and is read only at Finish.
type QueryTracer struct {
	clock netsim.Clock
	start time.Time

	mu       sync.Mutex
	fetches  []*Span
	subtrees []plan.Node // subtrees[i] is what fetches[i] asked its source for
}

// NewQueryTracer starts a tracer on the given clock; nil means wall time.
func NewQueryTracer(clock netsim.Clock) *QueryTracer {
	if clock == nil {
		clock = netsim.Wall
	}
	return &QueryTracer{clock: clock, start: clock.Now()}
}

// Clock returns the clock spans are measured on.
func (t *QueryTracer) Clock() netsim.Clock { return t.clock }

// Start returns the instant the tracer was created (query start).
func (t *QueryTracer) Start() time.Time { return t.start }

// RecordFetch appends one source-fetch attempt: wall extent on the engine
// clock plus the virtual link time, wire bytes and rows the attempt
// accounted for. Failed attempts record the error. Attempts number per
// (source, subtree): a retry re-sends the same subtree, whereas a plan
// that visits one source twice sends two, each starting at attempt 1.
func (t *QueryTracer) RecordFetch(source string, subtree plan.Node, start time.Time, d, simTime time.Duration, rows, bytes int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	attempt := 1
	for i, f := range t.fetches {
		if f.Source == source && t.subtrees[i] == subtree {
			attempt++
		}
	}
	sp := &Span{
		Name: "fetch", Source: source, Attempt: attempt,
		Start: start.Sub(t.start), Duration: d,
		SimTime: simTime, Rows: rows, Bytes: bytes,
	}
	if err != nil {
		sp.Error = err.Error()
	}
	t.fetches = append(t.fetches, sp)
	t.subtrees = append(t.subtrees, subtree)
}

// Finish materializes the span tree for the executed plan: a root "query"
// span covering planning plus execution, a "plan" child, an "exec" child
// holding the operator tree (shaped like the plan, labeled by Describe,
// rendered from the final attempt's ledger — the same records explain
// output reads, so the two cannot disagree), and one fetch child per
// source-fetch attempt. planTime shifts execution spans right so offsets
// are relative to query start. cards falls under the OpCard contract:
// call Finish only after the attempt's goroutines have joined.
func (t *QueryTracer) Finish(root plan.Node, cards *CardLedger, planTime time.Duration) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	execDur := t.clock.Since(t.start)

	var ops map[plan.Node]*OpCard
	if cards != nil {
		ops = cards.ByNode()
	}
	var opTree func(plan.Node) *Span
	opTree = func(n plan.Node) *Span {
		sp := &Span{Name: n.Describe(), Start: planTime}
		if c, ok := ops[n]; ok && !c.First.IsZero() {
			sp.Start = planTime + c.First.Sub(t.start)
			sp.Duration = c.Last.Sub(c.First)
			sp.Rows = c.Rows
			sp.Batches = c.Batches
		}
		plan.MapInputs(n, func(in plan.Node) plan.Node {
			sp.Children = append(sp.Children, opTree(in))
			return in
		})
		return sp
	}

	query := &Span{Name: "query", Duration: planTime + execDur}
	query.Children = append(query.Children, &Span{Name: "plan", Duration: planTime})
	execSpan := &Span{Name: "exec", Start: planTime, Duration: execDur}
	if root != nil {
		execSpan.Children = append(execSpan.Children, opTree(root))
	}
	query.Children = append(query.Children, execSpan)
	for _, f := range t.fetches {
		f.Start += planTime
		query.Children = append(query.Children, f)
	}
	return query
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// Spans are recorded from outside the engine only: one around every
// QueryOptsCtx call, one around every source fetch (the federation.Source
// decorator below) and one around every inter-node route (the
// core.FetchRouter decorator). The decorators are always installed so the
// timed and the traced rounds run the same code; recording is gated by
// one atomic flag.

const (
	spanQuery = "core.query"
	spanFetch = "federation.fetch"
	spanRoute = "cluster.route"
	// spanDeclined marks a route span whose router answered "not mine":
	// the fetch then ran locally under its own span, so the route span is
	// dropped from the analysis.
	spanDeclined = ""
)

// span is one recorded interval. IDs are indexes into recorder.spans;
// Parent is -1 for a query span. Start and End are nanoseconds since the
// recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows"`
}

type recorder struct {
	on    atomic.Bool
	epoch time.Time

	// mu guards spans: fetches of one query run on the engine's prefetch
	// goroutines and exchange workers, concurrently with each other.
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: netsim.Wall.Now()} }

func (r *recorder) now() int64 { return int64(netsim.Wall.Since(r.epoch)) }

func (r *recorder) begin(name string, parent int) int {
	start := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id, rows int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	r.spans[id].Rows = rows
	r.mu.Unlock()
}

func (r *recorder) decline(id int) {
	r.mu.Lock()
	r.spans[id].Name = spanDeclined
	r.mu.Unlock()
}

type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// parentOf returns the span the context was derived under, or -1. The
// engine derives every fetch context from the query's, so the value
// reaches the source wrappers untouched.
func parentOf(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// tracedSource decorates a source with a fetch span. The engine reaches
// sources through federation.ExecuteWithContext, which prefers ExecuteCtx.
type tracedSource struct {
	federation.Source
	rec *recorder
}

var _ federation.ContextSource = tracedSource{}

func (s tracedSource) ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error) {
	if !s.rec.on.Load() {
		return federation.ExecuteWithContext(ctx, s.Source, subtree)
	}
	id := s.rec.begin(spanFetch, parentOf(ctx))
	rows, err := federation.ExecuteWithContext(ctx, s.Source, subtree)
	s.rec.end(id, len(rows))
	return rows, err
}

// tracedRouter decorates a cluster node's fetch router with a route span;
// the owner's fetches parent under it through ctx.
type tracedRouter struct {
	core.FetchRouter
	rec *recorder
}

func (t tracedRouter) RouteRemote(ctx context.Context, source string, subtree plan.Node) ([]datum.Row, bool, error) {
	if !t.rec.on.Load() {
		return t.FetchRouter.RouteRemote(ctx, source, subtree)
	}
	id := t.rec.begin(spanRoute, parentOf(ctx))
	rows, handled, err := t.FetchRouter.RouteRemote(withSpan(ctx, id), source, subtree)
	if !handled {
		t.rec.decline(id)
		return rows, handled, err
	}
	t.rec.end(id, len(rows))
	return rows, handled, err
}

// traceTotals sums a trace by layer. Self time is a span's duration minus
// the union of its children's intervals, clipped to the span.
type traceTotals struct {
	queries     int
	querySelf   int64 // Σ query self time
	childUnion  int64 // Σ union of direct children inside each query span
	fetches     int
	fetchBusy   int64 // Σ fetch span durations (concurrent fetches both count)
	fetchRows   int64
	routes      int
	routeSelf   int64
	orphanSpans int // fetch or route spans without a parent
}

func (r *recorder) totals() traceTotals {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()

	children := make([][]int, len(spans))
	var t traceTotals
	for _, s := range spans {
		if s.Name == spanDeclined {
			continue
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		} else if s.Name != spanQuery {
			t.orphanSpans++
		}
	}
	for _, s := range spans {
		dur := s.End - s.Start
		switch s.Name {
		case spanQuery:
			u := unionInside(spans, s, children[s.ID])
			t.queries++
			t.childUnion += u
			t.querySelf += dur - u
		case spanFetch:
			t.fetches++
			t.fetchBusy += dur
			t.fetchRows += int64(s.Rows)
		case spanRoute:
			t.routes++
			t.routeSelf += dur - unionInside(spans, s, children[s.ID])
		}
	}
	return t
}

// unionInside returns the length of the union of the kids' intervals,
// clipped to the parent's.
func unionInside(spans []span, parent span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		start, end := spans[k].Start, spans[k].End
		if start < edge {
			start = edge
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// maxSpansWritten caps the trace file: the point-lookup workload records
// a few hundred thousand spans, and the first queries already show every
// span shape.
const maxSpansWritten = 20000

func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package core

// This file holds the per-query context registry. Every execution —
// QueryCtx, QueryOptsCtx, ExecuteCtx, PreparedStatement.ExecuteCtx —
// registers a QueryCtx for its lifetime, giving the engine a
// live view of what is running (httpapi's /queries endpoint) and a cancel
// handle that aborts the query's whole context tree: batch pulls,
// exchange workers, remote fetches, retry backoffs and netsim transfers
// all observe the same ctx.Done().

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
)

// QueryCtx is the engine-side identity of one in-flight query: its ID,
// statement text, start time, and the cancel handle the /queries endpoint
// (and Engine.CancelQuery) exposes. A QueryCtx stays valid after the
// query finishes; Cancel on a finished query is a no-op.
type QueryCtx struct {
	id     uint64
	sql    string
	clock  netsim.Clock
	start  time.Time
	cancel context.CancelFunc
}

// ID returns the engine-unique query ID (also surfaced as Result.QueryID).
func (q *QueryCtx) ID() uint64 { return q.id }

// SQL returns the statement text, when the execution entered through a
// SQL-taking API ("" for direct plan execution).
func (q *QueryCtx) SQL() string { return q.sql }

// Started returns when execution began, on the engine's clock.
func (q *QueryCtx) Started() time.Time { return q.start }

// Elapsed returns how long the query has been running, on the engine's
// clock (virtual clocks report virtual elapsed time).
func (q *QueryCtx) Elapsed() time.Duration { return q.clock.Since(q.start) }

// Cancel aborts the query: every goroutine working on it observes
// ctx.Done() and quiesces. Idempotent, and a no-op once the query ended.
func (q *QueryCtx) Cancel() { q.cancel() }

// inflightRegistry tracks running queries. It has its own lock so query
// begin/end never contends with the engine's catalog lock.
type inflightRegistry struct {
	mu      sync.Mutex
	nextID  atomic.Uint64
	running map[uint64]*QueryCtx
}

// beginQuery derives the query's cancellable context, registers it, and
// returns the derived context plus its registry entry. The caller must
// endQuery the entry when execution finishes.
func (e *Engine) beginQuery(ctx context.Context, clock netsim.Clock, sql string) (context.Context, *QueryCtx) {
	ctx, cancel := context.WithCancel(ctx)
	q := &QueryCtx{
		id:     e.inflight.nextID.Add(1),
		sql:    sql,
		clock:  clock,
		start:  clock.Now(),
		cancel: cancel,
	}
	e.inflight.mu.Lock()
	if e.inflight.running == nil {
		e.inflight.running = make(map[uint64]*QueryCtx)
	}
	e.inflight.running[q.id] = q
	e.inflight.mu.Unlock()
	return ctx, q
}

// endQuery deregisters a query and releases its context resources.
func (e *Engine) endQuery(q *QueryCtx) {
	q.cancel()
	e.inflight.mu.Lock()
	delete(e.inflight.running, q.id)
	e.inflight.mu.Unlock()
}

// InflightQueries snapshots the currently running queries, ordered by ID
// (start order).
func (e *Engine) InflightQueries() []*QueryCtx {
	e.inflight.mu.Lock()
	out := make([]*QueryCtx, 0, len(e.inflight.running))
	for _, q := range e.inflight.running {
		out = append(out, q)
	}
	e.inflight.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// CancelQuery cancels the in-flight query with the given ID, reporting
// whether it was found.
func (e *Engine) CancelQuery(id uint64) bool {
	e.inflight.mu.Lock()
	q, ok := e.inflight.running[id]
	e.inflight.mu.Unlock()
	if ok {
		q.cancel()
	}
	return ok
}

// Package matview implements materialized views over the mediated schema —
// the feature §5 (Draper) calls "a light-weight ETL system" that lets an
// administrator "choose whether she wanted live data for a particular view
// or not" — plus the persist-vs-virtualize advisor encoding §3's (Bitton)
// guidelines, and the cost-based recommendation that makes EII vs ETL "a
// choice in an optimization problem" (§5).
package matview

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/storage"
)

// Mode selects where a read is served from.
type Mode int

// Read modes.
const (
	// Live re-executes the view's federated query.
	Live Mode = iota
	// Cached serves the last materialized result.
	Cached
)

// MatView is one materialized view.
type MatView struct {
	Name string
	SQL  string

	mu          sync.Mutex
	cols        []string
	kinds       []datum.Kind
	rows        []datum.Row
	refreshes   int
	lastElapsed time.Duration
	fresh       bool
}

// Manager owns the materialized views of one mediator.
type Manager struct {
	engine *core.Engine

	mu    sync.Mutex
	views map[string]*MatView
}

// NewManager creates a materialized-view manager over a mediator.
func NewManager(engine *core.Engine) *Manager {
	return &Manager{engine: engine, views: make(map[string]*MatView)}
}

// Materialize registers a view definition and computes its first
// materialization.
func (m *Manager) Materialize(ctx context.Context, name, sql string) (*MatView, error) {
	m.mu.Lock()
	key := strings.ToLower(name)
	if _, dup := m.views[key]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("matview: %s already materialized", name)
	}
	v := &MatView{Name: name, SQL: sql}
	m.views[key] = v
	m.mu.Unlock()
	if err := m.Refresh(ctx, name); err != nil {
		m.mu.Lock()
		delete(m.views, key)
		m.mu.Unlock()
		return nil, err
	}
	// No compiled plan consults the manager, so materializing retires
	// none: reads of the copy go through Read, not through the planner.
	return v, nil
}

// Drop removes a materialized view.
func (m *Manager) Drop(name string) {
	m.mu.Lock()
	delete(m.views, strings.ToLower(name))
	m.mu.Unlock()
}

// View returns a materialized view by name.
func (m *Manager) View(name string) (*MatView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[strings.ToLower(name)]
	return v, ok
}

// Refresh recomputes the view through the federated engine, paying the
// network cost of the underlying query.
func (m *Manager) Refresh(ctx context.Context, name string) error {
	v, ok := m.View(name)
	if !ok {
		return fmt.Errorf("matview: unknown view %s", name)
	}
	res, err := m.engine.QueryCtx(ctx, v.SQL)
	if err != nil {
		return fmt.Errorf("matview: refreshing %s: %w", name, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.cols = res.Columns
	v.kinds = res.Kinds
	v.rows = res.Rows
	v.refreshes++
	v.lastElapsed = res.Elapsed
	v.fresh = true
	return nil
}

// Invalidate marks the cached contents stale (called by write paths that
// know they touched underlying data).
func (m *Manager) Invalidate(name string) {
	if v, ok := m.View(name); ok {
		v.mu.Lock()
		v.fresh = false
		v.mu.Unlock()
	}
}

// AutoInvalidate subscribes the view to change notifications on every base
// table its definition reads, so the cache marks itself stale the moment
// underlying data moves — no manual Invalidate calls. It returns a cancel
// function detaching the subscriptions.
func (m *Manager) AutoInvalidate(ctx context.Context, name string) (cancel func(), err error) {
	v, ok := m.View(name)
	if !ok {
		return nil, fmt.Errorf("matview: unknown view %s", name)
	}
	return m.engine.DependencySubscribe(ctx, v.SQL, func(storage.Change) {
		m.Invalidate(name)
	})
}

// Read serves the view in the requested mode. Cached reads return the
// materialized rows without touching any source; Live reads re-execute.
func (m *Manager) Read(ctx context.Context, name string, mode Mode) (*core.Result, error) {
	v, ok := m.View(name)
	if !ok {
		return nil, fmt.Errorf("matview: unknown view %s", name)
	}
	if mode == Live {
		return m.engine.QueryCtx(ctx, v.SQL)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	rows := make([]datum.Row, len(v.rows))
	copy(rows, v.rows)
	return &core.Result{Columns: v.cols, Kinds: v.kinds, Rows: rows}, nil
}

// Fresh reports whether the cache is known-current (no Invalidate since the
// last Refresh).
func (v *MatView) Fresh() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fresh
}

// Refreshes returns how many times the view has been recomputed.
func (v *MatView) Refreshes() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.refreshes
}

// Rows returns the cached row count.
func (v *MatView) Rows() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.rows)
}

// --- The persist-vs-virtualize advisor (§3's guidelines, experiment E11) ---

// Scenario describes one integration need for the advisor.
type Scenario struct {
	// NeedHistory: the application must keep historical snapshots
	// (persistence guideline 1: "persist data to keep history").
	NeedHistory bool
	// SourceAccessDenied: the federating engine may not touch the source
	// live (persistence guideline 2).
	SourceAccessDenied bool
	// SharedAcrossMarts: the data is a conformed dimension shared by
	// multiple marts (virtualization guideline 1).
	SharedAcrossMarts bool
	// OneOffOrPrototype: a one-time report or prototype (virtualization
	// guideline 2).
	OneOffOrPrototype bool
	// NeedsLiveData: dashboards/portals needing up-to-the-minute facts
	// (virtualization guideline 3).
	NeedsLiveData bool
	// ReadsPerUpdate breaks ties cost-wise when no guideline fires.
	ReadsPerUpdate float64
}

// Decision is the advisor's verdict.
type Decision int

// Advisor decisions.
const (
	Persist Decision = iota
	Virtualize
)

// String renders the decision.
func (d Decision) String() string {
	if d == Persist {
		return "PERSIST"
	}
	return "VIRTUALIZE"
}

// Advise applies §3's guidelines in the paper's order: the persistence
// guidelines are checked first ("these virtualization guidelines should
// only be invoked after none of the persistence guidelines apply"), then
// the virtualization guidelines, then a cost-based default.
func Advise(s Scenario) (Decision, string) {
	switch {
	case s.NeedHistory:
		return Persist, "persist data to keep history (no other source for history exists)"
	case s.SourceAccessDenied:
		return Persist, "access to source systems is denied; data must be extracted to a persistent store"
	case s.SharedAcrossMarts:
		return Virtualize, "virtualize shared data across warehouse/mart boundaries instead of copying it"
	case s.OneOffOrPrototype:
		return Virtualize, "virtualize for special projects and prototypes"
	case s.NeedsLiveData:
		return Virtualize, "data must reflect up-to-the-minute operational facts"
	case s.ReadsPerUpdate >= 1:
		return Persist, "read-heavy workload: materialization amortizes the integration cost"
	default:
		return Virtualize, "update-heavy workload: recomputing on every change costs more than querying live"
	}
}

// RecommendMode compares the measured cost of serving a view virtually
// against materializing it, for a workload with the given read and update
// rates (per arbitrary period). refreshCost and liveCost are per-operation
// costs in the same unit (bytes shipped or simulated time). The
// materialized strategy refreshes once per update; the virtual strategy
// pays the live cost once per read.
func RecommendMode(readsPerPeriod, updatesPerPeriod, liveCost, refreshCost float64) (Mode, float64, float64) {
	virtualTotal := readsPerPeriod * liveCost
	materializedTotal := updatesPerPeriod * refreshCost
	if materializedTotal <= virtualTotal {
		return Cached, virtualTotal, materializedTotal
	}
	return Live, virtualTotal, materializedTotal
}

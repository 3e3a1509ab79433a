// Package warehouse implements the ETL baseline the paper positions EII
// against (§3 Bitton, §5 Draper): periodically extract source tables in
// bulk into a co-located store, then answer queries locally. The warehouse
// pays network cost at refresh time and serves stale-but-fast reads; the
// EII mediator pays per query and serves live data. Experiment E2 compares
// the two in one cost currency.
package warehouse

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// Versioned is implemented by sources whose tables report a mutation
// counter; the warehouse uses it to measure staleness.
type Versioned interface {
	TableVersion(table string) (int64, bool)
}

// Feed is one extracted table.
type Feed struct {
	Source federation.Source
	Table  string
	// loadedVersion is the source table version at the last refresh
	// (-1 before the first refresh).
	loadedVersion int64
	// loadedRows is the number of rows at the last refresh.
	loadedRows int
	// refreshedAt is the wall-clock time of the last refresh (zero
	// before the first).
	refreshedAt time.Time
}

// Warehouse is a central store fed by bulk extraction.
type Warehouse struct {
	mu     sync.Mutex
	store  *federation.RelationalSource
	engine *core.Engine
	feeds  []*Feed
	clock  netsim.Clock
}

// New creates an empty warehouse. The local store is reachable over a
// zero-cost link (it is co-located with the query engine).
func New(name string) (*Warehouse, error) {
	store := federation.NewRelationalSource(name, federation.FullSQL(), netsim.LocalLink())
	engine := core.New()
	if err := engine.Register(store); err != nil {
		return nil, err
	}
	return &Warehouse{store: store, engine: engine, clock: netsim.Wall}, nil
}

// SetClock replaces the clock the warehouse stamps refreshes with
// (default: the wall clock). With a netsim.VirtualClock, replica ages —
// and therefore E12's ReplicaMaxAge fallback decisions — are exactly
// reproducible run to run.
func (w *Warehouse) SetClock(c netsim.Clock) {
	if c == nil {
		c = netsim.Wall
	}
	w.mu.Lock()
	w.clock = c
	w.mu.Unlock()
}

// Engine exposes the warehouse's local query engine, e.g. for view
// definitions mirroring the mediated schema.
func (w *Warehouse) Engine() *core.Engine { return w.engine }

// AddFeed declares that the named source table should be mirrored into the
// warehouse. The local table keeps the source table's name, so queries
// written against unqualified table names run unchanged on both the EII
// mediator and the warehouse.
func (w *Warehouse) AddFeed(src federation.Source, table string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	sch, ok := src.Catalog().Table(table)
	if !ok {
		return fmt.Errorf("warehouse: source %s has no table %s", src.Name(), table)
	}
	for _, f := range w.feeds {
		if strings.EqualFold(f.Table, table) {
			return fmt.Errorf("warehouse: feed for table %s already exists", table)
		}
	}
	if _, err := w.store.CreateTable(sch); err != nil {
		return err
	}
	w.feeds = append(w.feeds, &Feed{Source: src, Table: table, loadedVersion: -1})
	return nil
}

// Refresh re-extracts every feed (classic full-reload ETL batch). The
// network cost lands on each source's link, exactly like an EII scan of
// the whole table would. It returns the number of rows loaded. An ETL
// window deadline or shutdown cancels the remaining extractions mid-batch
// (already-loaded feeds keep their new rows). The feed list is
// snapshotted and each extraction runs without w.mu held — the network
// fetch is the slow part of an ETL batch, and holding the lock across it
// would starve ReplicaTable (the E12 replica-fallback query path) for the
// whole batch. Only the local apply of fetched rows takes the lock, so
// replica reads never observe a half-loaded table.
func (w *Warehouse) Refresh(ctx context.Context) (int, error) {
	w.mu.Lock()
	feeds := append([]*Feed(nil), w.feeds...)
	w.mu.Unlock()
	total := 0
	for _, f := range feeds {
		n, err := w.refreshFeed(ctx, f)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// RefreshTable re-extracts a single feed. Like Refresh, the extraction
// itself runs without w.mu held.
func (w *Warehouse) RefreshTable(ctx context.Context, table string) (int, error) {
	w.mu.Lock()
	var feed *Feed
	for _, f := range w.feeds {
		if strings.EqualFold(f.Table, table) {
			feed = f
			break
		}
	}
	w.mu.Unlock()
	if feed == nil {
		return 0, fmt.Errorf("warehouse: no feed for table %s", table)
	}
	return w.refreshFeed(ctx, feed)
}

// refreshFeed extracts one source table and applies it locally. The
// network fetch runs unlocked — f.Source and f.Table are immutable after
// AddFeed — and only the local apply (truncate + insert + bookkeeping)
// holds w.mu, so replica readers see either the old rows or the new
// ones, never a partial load, and never wait on a source's link.
func (w *Warehouse) refreshFeed(ctx context.Context, f *Feed) (int, error) {
	sch, ok := f.Source.Catalog().Table(f.Table)
	if !ok {
		return 0, fmt.Errorf("warehouse: source %s dropped table %s", f.Source.Name(), f.Table)
	}
	cols := make([]plan.ColMeta, sch.Arity())
	for i, c := range sch.Columns {
		cols[i] = plan.ColMeta{Table: f.Table, Name: c.Name, Kind: c.Kind}
	}
	rows, err := federation.ExecuteWithContext(ctx, f.Source, &plan.Scan{
		Source: f.Source.Name(), Table: f.Table, Alias: f.Table, Cols: cols,
	})
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	local, ok := w.store.Table(f.Table)
	if !ok {
		return 0, fmt.Errorf("warehouse: local table %s missing", f.Table)
	}
	local.Truncate()
	for _, r := range rows {
		if err := local.Insert(r); err != nil {
			return 0, fmt.Errorf("warehouse: loading %s: %w", f.Table, err)
		}
	}
	if v, ok := f.Source.(Versioned); ok {
		if ver, found := v.TableVersion(f.Table); found {
			f.loadedVersion = ver
		}
	} else {
		f.loadedVersion = 0
	}
	f.loadedRows = len(rows)
	f.refreshedAt = w.clock.Now()
	w.store.RefreshStats()
	return len(rows), nil
}

// ReplicaTable implements core.ReplicaProvider: when the mediator loses a
// source, a warehouse mirroring that source's tables can answer in its
// stead with bounded staleness. It returns the replicated rows, the age
// of the replica, and whether a refreshed feed for source.table exists.
// The rows are a zero-copy storage snapshot, read only by the replica
// scan they feed.
func (w *Warehouse) ReplicaTable(source, table string) ([]datum.Row, time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range w.feeds {
		if !strings.EqualFold(f.Source.Name(), source) || !strings.EqualFold(f.Table, table) {
			continue
		}
		if f.refreshedAt.IsZero() {
			return nil, 0, false // never refreshed: nothing to serve
		}
		local, ok := w.store.Table(f.Table)
		if !ok {
			return nil, 0, false
		}
		return local.Snapshot(), w.clock.Since(f.refreshedAt), true
	}
	return nil, 0, false
}

var _ core.ReplicaProvider = (*Warehouse)(nil)

// Staleness reports, per feed, how many source mutations have happened
// since the last refresh. Feeds never refreshed report -1.
func (w *Warehouse) Staleness() map[string]int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int64, len(w.feeds))
	for _, f := range w.feeds {
		if f.loadedVersion < 0 {
			out[f.Table] = -1
			continue
		}
		if v, ok := f.Source.(Versioned); ok {
			if ver, found := v.TableVersion(f.Table); found {
				out[f.Table] = ver - f.loadedVersion
				continue
			}
		}
		out[f.Table] = 0
	}
	return out
}

// TotalStaleness sums the per-feed staleness counters (unrefreshed feeds
// count as 0 mutations known-missed; they are reported separately).
func (w *Warehouse) TotalStaleness() int64 {
	var total int64
	for _, s := range w.Staleness() {
		if s > 0 {
			total += s
		}
	}
	return total
}

// Query runs SQL against the warehouse's local store.
func (w *Warehouse) Query(ctx context.Context, sql string) (*core.Result, error) {
	return w.engine.QueryCtx(ctx, sql)
}

// Feeds returns the mirrored table names, in registration order.
func (w *Warehouse) Feeds() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.feeds))
	for i, f := range w.feeds {
		out[i] = f.Table
	}
	return out
}

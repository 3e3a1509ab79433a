package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/storage"

	"repro/internal/plan"
)

// RelationalSource wraps a full relational backend: it accepts any
// pushed-down subtree (filters, projections, joins, aggregates, sorts,
// limits over its own tables) and executes it locally, shipping only the
// result. This models the mature DBMS the paper says EII must exploit
// ("component queries ... push down RDBMS-specific SQL queries to the
// sources", §3).
type RelationalSource struct {
	name string
	caps Caps
	link *netsim.Link
	cat  *catalog.SourceCatalog

	mu     sync.RWMutex
	tables map[string]*storage.Table
}

// NewRelationalSource creates an empty relational source with the given
// capability set (use FullSQL() for a mature backend).
func NewRelationalSource(name string, caps Caps, link *netsim.Link) *RelationalSource {
	if link == nil {
		link = netsim.LocalLink()
	}
	return &RelationalSource{
		name:   name,
		caps:   caps,
		link:   link,
		cat:    catalog.NewSourceCatalog(name),
		tables: make(map[string]*storage.Table),
	}
}

// Name implements Source.
func (s *RelationalSource) Name() string { return s.name }

// Catalog implements Source.
func (s *RelationalSource) Catalog() *catalog.SourceCatalog { return s.cat }

// Capabilities implements Source.
func (s *RelationalSource) Capabilities() Caps { return s.caps }

// Link implements Source.
func (s *RelationalSource) Link() *netsim.Link { return s.link }

// CreateTable adds a table to the source.
func (s *RelationalSource) CreateTable(sch *schema.Table) (*storage.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(sch.Name)
	if _, dup := s.tables[key]; dup {
		return nil, fmt.Errorf("federation: source %s already has table %s", s.name, sch.Name)
	}
	t := storage.NewTable(sch)
	s.tables[key] = t
	s.cat.AddTable(sch, t.Stats())
	return t, nil
}

// Table returns a storage table by name.
func (s *RelationalSource) Table(name string) (*storage.Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// SubscribeTable implements Notifying: fn fires after each mutation of the
// named table.
func (s *RelationalSource) SubscribeTable(table string, fn func(storage.Change)) (func(), error) {
	t, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("federation: source %s has no table %s", s.name, table)
	}
	return t.Subscribe(fn), nil
}

// TableVersion reports the mutation counter of a table, letting the
// warehouse measure staleness.
func (s *RelationalSource) TableVersion(name string) (int64, bool) {
	t, ok := s.Table(name)
	if !ok {
		return 0, false
	}
	return t.Version(), true
}

// RefreshStats recomputes and publishes statistics for all tables.
func (s *RelationalSource) RefreshStats() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, t := range s.tables {
		s.cat.SetStats(name, t.Stats())
	}
}

// Execute implements Source: the context-free compatibility path.
func (s *RelationalSource) Execute(subtree plan.Node) ([]datum.Row, error) {
	//lint:ignore ctxpropagate Source interface compatibility shim; the query path uses ExecuteCtx
	return s.ExecuteCtx(context.Background(), subtree)
}

// ExecuteCtx implements ContextSource: the fetch is abandoned (before
// shipping) once the context's deadline passes or it is cancelled.
func (s *RelationalSource) ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateSubtree(s.name, s.caps, subtree); err != nil {
		return nil, err
	}
	rows, err := execLocal(ctx, s.name, subtree, func(table string) ([]datum.Row, error) {
		t, ok := s.Table(table)
		if !ok {
			return nil, fmt.Errorf("federation: source %s has no table %s", s.name, table)
		}
		// Header-only snapshot: stored rows are immutable and the exec
		// layer never mutates batch rows, so sharing avoids cloning the
		// whole table per scan. The engine copies rows that reach callers.
		return t.SnapshotShared(), nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return shipResult(ctx, s.link, RequestSize(subtree), rows)
}

// Insert implements Updatable.
func (s *RelationalSource) Insert(table string, row datum.Row) error {
	t, ok := s.Table(table)
	if !ok {
		return fmt.Errorf("federation: source %s has no table %s", s.name, table)
	}
	// Writes cross the same link as reads.
	if _, err := s.link.Transfer(requestOverheadBytes + datum.RowWireSize(row)); err != nil {
		return err
	}
	return t.Insert(row)
}

// Update implements Updatable.
func (s *RelationalSource) Update(table string, pred func(datum.Row) bool, fn func(datum.Row) datum.Row) (int, error) {
	t, ok := s.Table(table)
	if !ok {
		return 0, fmt.Errorf("federation: source %s has no table %s", s.name, table)
	}
	if _, err := s.link.Transfer(requestOverheadBytes); err != nil {
		return 0, err
	}
	return t.Update(pred, fn)
}

// Delete implements Updatable.
func (s *RelationalSource) Delete(table string, pred func(datum.Row) bool) (int, error) {
	t, ok := s.Table(table)
	if !ok {
		return 0, fmt.Errorf("federation: source %s has no table %s", s.name, table)
	}
	if _, err := s.link.Transfer(requestOverheadBytes); err != nil {
		return 0, err
	}
	return t.Delete(pred), nil
}

var (
	_ Source        = (*RelationalSource)(nil)
	_ ContextSource = (*RelationalSource)(nil)
	_ Updatable     = (*RelationalSource)(nil)
	_ Notifying     = (*RelationalSource)(nil)
)

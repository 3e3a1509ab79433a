package federation

import (
	"context"

	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/storage"
)

// RelationalSource wraps a full relational backend: it accepts any
// pushed-down subtree (filters, projections, joins, aggregates, sorts,
// limits over its own tables) and executes it locally, shipping only the
// result. This models the mature DBMS the paper says EII must exploit
// ("component queries ... push down RDBMS-specific SQL queries to the
// sources", §3).
type RelationalSource struct {
	tableBacked
}

// NewRelationalSource creates an empty relational source with the given
// capability set: FullSQL() for a mature backend, ScanOnly() for a store
// that can only ship whole tables (a key-value backend).
func NewRelationalSource(name string, caps Caps, link *netsim.Link) *RelationalSource {
	return &RelationalSource{newTableBacked(name, caps, link)}
}

// CreateTable adds a table to the source.
func (s *RelationalSource) CreateTable(sch *schema.Table) (*storage.Table, error) {
	t := storage.NewTable(sch)
	if err := s.addTable(sch, t); err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns a storage table by name.
func (s *RelationalSource) Table(name string) (*storage.Table, bool) {
	t, err := s.table(name)
	return t, err == nil
}

// SubscribeTable implements Notifying: fn fires after each mutation of the
// named table.
func (s *RelationalSource) SubscribeTable(table string, fn func(storage.Change)) (func(), error) {
	t, err := s.table(table)
	if err != nil {
		return nil, err
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

// Insert implements Updatable.
func (s *RelationalSource) Insert(ctx context.Context, table string, row datum.Row) error {
	t, err := s.table(table)
	if err != nil {
		return err
	}
	// Writes cross the same link as reads.
	if _, err := s.link.Transfer(ctx, requestOverheadBytes+datum.RowWireSize(row)); err != nil {
		return err
	}
	return t.Insert(row)
}

// Update implements Updatable.
func (s *RelationalSource) Update(ctx context.Context, table string, pred func(datum.Row) bool, fn func(datum.Row) datum.Row) (int, error) {
	t, err := s.table(table)
	if err != nil {
		return 0, err
	}
	if _, err := s.link.Transfer(ctx, requestOverheadBytes); err != nil {
		return 0, err
	}
	return t.Update(pred, fn)
}

// Delete implements Updatable.
func (s *RelationalSource) Delete(ctx context.Context, table string, pred func(datum.Row) bool) (int, error) {
	t, err := s.table(table)
	if err != nil {
		return 0, err
	}
	if _, err := s.link.Transfer(ctx, requestOverheadBytes); err != nil {
		return 0, err
	}
	return t.Delete(pred), nil
}

var (
	_ Source    = (*RelationalSource)(nil)
	_ Updatable = (*RelationalSource)(nil)
	_ Notifying = (*RelationalSource)(nil)
)

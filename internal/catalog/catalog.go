// Package catalog holds the metadata the mediator plans against: one
// catalog per registered source (its tables and statistics) plus the global
// mediated catalog of virtual views (GAV mappings from the mediated schema
// to source schemas).
//
// The global catalog is monotonically versioned and copy-on-write: every
// mutation (source registration, view definition, Touch, Bump) installs a
// fresh immutable Snapshot under the next version number. Planning takes
// one Snapshot and resolves every name against it, so a query in flight
// sees a consistent schema no matter what registrations race with it.
//
// A snapshot also records, per Name, the version of the last write that may
// have changed how that name resolves, plus a floor: the version of the
// last write scoped to no names (Bump). A plan compiled at version v over a
// set of names is current under a snapshot exactly when ChangedSince(v,
// names) is false, so a write retires only the plans that read what it
// changed.
package catalog

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// SourceCatalog describes one data source's exported tables. It is safe
// for concurrent use: wrappers refresh statistics while queries plan.
type SourceCatalog struct {
	Name   string
	mu     sync.RWMutex
	tables map[string]*schema.Table
	stats  map[string]*schema.TableStats
}

// NewSourceCatalog creates an empty catalog for the named source.
func NewSourceCatalog(name string) *SourceCatalog {
	return &SourceCatalog{
		Name:   name,
		tables: make(map[string]*schema.Table),
		stats:  make(map[string]*schema.TableStats),
	}
}

// AddTable registers a table. Re-adding a name replaces the entry.
func (c *SourceCatalog) AddTable(t *schema.Table, stats *schema.TableStats) {
	key := strings.ToLower(t.Name)
	if stats == nil {
		stats = schema.DefaultStats(t, 1000)
	}
	c.mu.Lock()
	c.tables[key] = t
	c.stats[key] = stats
	c.mu.Unlock()
}

// Table looks up a table by name, case-insensitively.
func (c *SourceCatalog) Table(name string) (*schema.Table, bool) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	return t, ok
}

// Stats returns the statistics recorded for the table.
func (c *SourceCatalog) Stats(name string) (*schema.TableStats, bool) {
	c.mu.RLock()
	s, ok := c.stats[strings.ToLower(name)]
	c.mu.RUnlock()
	return s, ok
}

// SetStats replaces the statistics for a table.
func (c *SourceCatalog) SetStats(name string, s *schema.TableStats) {
	c.mu.Lock()
	c.stats[strings.ToLower(name)] = s
	c.mu.Unlock()
}

// TableNames returns the sorted table names.
func (c *SourceCatalog) TableNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// View is a named virtual relation over the mediated schema. Views are the
// unit of mediation (§5 Draper: "we used views as a central metaphor").
type View struct {
	Name  string
	Query *sqlparse.Select
	// SQL keeps the original definition text for display.
	SQL string
}

// Name is a table reference as a query spells it, lower-cased: Source is
// empty for a bare name, which resolves view-first (see Snapshot.Resolve).
// Writes are scoped by the names whose resolution they change.
type Name struct{ Source, Table string }

// NameOf returns the Name of a (possibly source-qualified) reference.
func NameOf(source, table string) Name {
	return Name{Source: strings.ToLower(source), Table: strings.ToLower(table)}
}

// SourceNames returns the names whose resolution registering or removing sc
// changes: S.t and the bare t of each of its tables. A bare name resolves
// to a uniquely named source table, so a new source can make one
// ambiguous, and removing one can make it unique again.
func SourceNames(sc *SourceCatalog) []Name {
	tables := sc.TableNames()
	names := make([]Name, 0, 2*len(tables))
	for _, t := range tables {
		names = append(names, NameOf(sc.Name, t), NameOf("", t))
	}
	return names
}

// Reader is the read-only name-resolution surface the planner builds
// against. Both the live Global catalog and an immutable Snapshot satisfy
// it; the engine always plans against a Snapshot.
type Reader interface {
	// Resolve maps a (possibly source-qualified) table name to a view or
	// a source table.
	Resolve(source, name string) (Resolution, error)
	// Version is the catalog version the resolution is made against.
	Version() uint64
}

// Snapshot is one immutable version of the global catalog. All methods are
// lock-free reads; a Snapshot never changes after publication. (The
// per-source SourceCatalog contents — table statistics — are shared across
// snapshots and individually locked; schema membership is what the
// snapshot freezes.)
type Snapshot struct {
	version uint64
	sources map[string]*SourceCatalog
	views   map[string]*View
	// changed maps a name to the version of the last write that may have
	// changed how it resolves; floor is the version of the last write
	// scoped to no names. A snapshot shares both with its predecessor
	// until a write changes them.
	changed map[Name]uint64
	floor   uint64
}

// Version returns the monotonically increasing catalog version.
func (s *Snapshot) Version() uint64 { return s.version }

// ChangedSince reports whether a write after version v may have changed
// how any of names resolves — whether a plan compiled against version v
// over those names must be compiled again before it serves a query
// planning against this snapshot.
func (s *Snapshot) ChangedSince(v uint64, names []Name) bool {
	if v >= s.version {
		return false // nothing in this snapshot is newer than v
	}
	if s.floor > v {
		return true
	}
	for _, n := range names {
		if s.changed[n] > v {
			return true
		}
	}
	return false
}

// Source returns the catalog for a source.
func (s *Snapshot) Source(name string) (*SourceCatalog, bool) {
	sc, ok := s.sources[strings.ToLower(name)]
	return sc, ok
}

// SourceNames returns the sorted registered source names.
func (s *Snapshot) SourceNames() []string {
	names := make([]string, 0, len(s.sources))
	for _, sc := range s.sources {
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return names
}

// View looks up a view by name.
func (s *Snapshot) View(name string) (*View, bool) {
	v, ok := s.views[strings.ToLower(name)]
	return v, ok
}

// ViewNames returns the sorted view names.
func (s *Snapshot) ViewNames() []string {
	names := make([]string, 0, len(s.views))
	for _, v := range s.views {
		names = append(names, v.Name)
	}
	sort.Strings(names)
	return names
}

// Resolve maps a (possibly source-qualified) table name to a view or a
// source table. Unqualified names resolve to a view first, then to a
// uniquely named source table; ambiguity is an error.
func (s *Snapshot) Resolve(source, name string) (Resolution, error) {
	if source != "" {
		sc, ok := s.sources[strings.ToLower(source)]
		if !ok {
			return Resolution{}, fmt.Errorf("catalog: unknown source %q", source)
		}
		t, ok := sc.Table(name)
		if !ok {
			return Resolution{}, fmt.Errorf("catalog: source %s has no table %q", sc.Name, name)
		}
		return Resolution{Source: sc.Name, Table: t}, nil
	}
	if v, ok := s.views[strings.ToLower(name)]; ok {
		return Resolution{View: v}, nil
	}
	var found Resolution
	matches := 0
	for _, sc := range s.sources {
		if t, ok := sc.Table(name); ok {
			found = Resolution{Source: sc.Name, Table: t}
			matches++
		}
	}
	switch matches {
	case 0:
		return Resolution{}, fmt.Errorf("catalog: unknown table or view %q", name)
	case 1:
		return found, nil
	default:
		return Resolution{}, fmt.Errorf("catalog: table %q is ambiguous across sources; qualify it as source.table", name)
	}
}

// Global is the mediator's catalog: all registered sources plus the
// mediated views. It is safe for concurrent use; readers never block
// writers (they read the current immutable snapshot).
type Global struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[Snapshot]
}

// NewGlobal creates an empty global catalog at version 1.
func NewGlobal() *Global {
	g := &Global{}
	g.snap.Store(&Snapshot{
		version: 1,
		sources: make(map[string]*SourceCatalog),
		views:   make(map[string]*View),
	})
	return g
}

// Snapshot returns the current immutable catalog version. Planning one
// query takes one snapshot and uses it throughout.
func (g *Global) Snapshot() *Snapshot { return g.snap.Load() }

// Version returns the current catalog version.
func (g *Global) Version() uint64 { return g.snap.Load().version }

// mutate clones the current snapshot, applies fn to the clone, and
// installs it under the next version, recording that the names fn returns
// changed at that version. Callers hold no locks.
func (g *Global) mutate(fn func(*Snapshot) ([]Name, error)) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap.Load()
	next := &Snapshot{
		version: cur.version + 1,
		sources: make(map[string]*SourceCatalog, len(cur.sources)+1),
		views:   make(map[string]*View, len(cur.views)+1),
		changed: cur.changed,
		floor:   cur.floor,
	}
	for k, v := range cur.sources {
		next.sources[k] = v
	}
	for k, v := range cur.views {
		next.views[k] = v
	}
	names, err := fn(next)
	if err != nil {
		return err
	}
	if len(names) > 0 {
		next.changed = make(map[Name]uint64, len(cur.changed)+len(names))
		maps.Copy(next.changed, cur.changed)
		for _, n := range names {
			next.changed[n] = next.version
		}
	}
	g.snap.Store(next)
	return nil
}

// Bump advances the catalog version and raises the floor to it: every
// plan compiled before it counts as changed. It is for writes outside the
// catalog proper that change how every plan places its work (breaker
// reconfiguration, cluster fetch routing).
func (g *Global) Bump() uint64 {
	_ = g.mutate(func(s *Snapshot) ([]Name, error) {
		s.floor = s.version
		return nil, nil
	})
	return g.Version()
}

// Touch advances the catalog version and records that names changed at
// it. It is for writes the catalog cannot see, such as a table added in
// place to a registered source's catalog.
func (g *Global) Touch(names ...Name) uint64 {
	_ = g.mutate(func(*Snapshot) ([]Name, error) { return names, nil })
	return g.Version()
}

// AddSource registers a source catalog; the name must be unique.
func (g *Global) AddSource(sc *SourceCatalog) error {
	return g.mutate(func(s *Snapshot) ([]Name, error) {
		key := strings.ToLower(sc.Name)
		if _, dup := s.sources[key]; dup {
			return nil, fmt.Errorf("catalog: source %s already registered", sc.Name)
		}
		s.sources[key] = sc
		return SourceNames(sc), nil
	})
}

// RemoveSource drops a source catalog.
func (g *Global) RemoveSource(name string) {
	_ = g.mutate(func(s *Snapshot) ([]Name, error) {
		key := strings.ToLower(name)
		sc, ok := s.sources[key]
		if !ok {
			return nil, nil
		}
		delete(s.sources, key)
		return SourceNames(sc), nil
	})
}

// Source returns the catalog for a source.
func (g *Global) Source(name string) (*SourceCatalog, bool) {
	return g.Snapshot().Source(name)
}

// SourceNames returns the sorted registered source names.
func (g *Global) SourceNames() []string { return g.Snapshot().SourceNames() }

// DefineView parses and registers a mediated view. The definition may
// reference source tables and previously defined views.
func (g *Global) DefineView(name, querySQL string) error {
	q, err := sqlparse.Parse(querySQL)
	if err != nil {
		return fmt.Errorf("catalog: view %s: %w", name, err)
	}
	return g.mutate(func(s *Snapshot) ([]Name, error) {
		key := strings.ToLower(name)
		if _, dup := s.views[key]; dup {
			return nil, fmt.Errorf("catalog: view %s already defined", name)
		}
		s.views[key] = &View{Name: name, Query: q, SQL: querySQL}
		return []Name{{Table: key}}, nil
	})
}

// DropView removes a view definition.
func (g *Global) DropView(name string) {
	_ = g.mutate(func(s *Snapshot) ([]Name, error) {
		key := strings.ToLower(name)
		delete(s.views, key)
		return []Name{{Table: key}}, nil
	})
}

// View looks up a view by name.
func (g *Global) View(name string) (*View, bool) { return g.Snapshot().View(name) }

// ViewNames returns the sorted view names.
func (g *Global) ViewNames() []string { return g.Snapshot().ViewNames() }

// Resolution is the result of resolving a table reference.
type Resolution struct {
	// Exactly one of View or (Source, Table) is set.
	View   *View
	Source string
	Table  *schema.Table
}

// Resolve resolves against the current snapshot. Prefer taking a Snapshot
// once per query.
func (g *Global) Resolve(source, name string) (Resolution, error) {
	return g.Snapshot().Resolve(source, name)
}

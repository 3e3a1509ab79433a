package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
)

// tableBacked is the Source half shared by the wrappers that hold their
// data in storage tables: one locked table registry and one ExecuteCtx.
// The wrappers differ only in the capability set they advertise and in
// how tables get in (CreateTable, LoadCSV).
type tableBacked struct {
	name string
	caps Caps
	link *netsim.Link
	cat  *catalog.SourceCatalog

	mu     sync.RWMutex
	tables map[string]*storage.Table
}

func newTableBacked(name string, caps Caps, link *netsim.Link) tableBacked {
	if link == nil {
		link = netsim.LocalLink()
	}
	return tableBacked{
		name:   name,
		caps:   caps,
		link:   link,
		cat:    catalog.NewSourceCatalog(name),
		tables: make(map[string]*storage.Table),
	}
}

// Name implements Source.
func (s *tableBacked) Name() string { return s.name }

// Catalog implements Source.
func (s *tableBacked) Catalog() *catalog.SourceCatalog { return s.cat }

// Capabilities implements Source.
func (s *tableBacked) Capabilities() Caps { return s.caps }

// Link implements Source.
func (s *tableBacked) Link() *netsim.Link { return s.link }

// addTable registers t under its schema's name and publishes it in the
// source catalog.
func (s *tableBacked) addTable(sch *schema.Table, t *storage.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(sch.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("federation: source %s already has table %s", s.name, sch.Name)
	}
	s.tables[key] = t
	s.cat.AddTable(sch, t.Stats())
	return nil
}

func (s *tableBacked) table(name string) (*storage.Table, error) {
	s.mu.RLock()
	t, ok := s.tables[strings.ToLower(name)]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("federation: source %s has no table %s", s.name, name)
	}
	return t, nil
}

// ExecuteCtx implements Source: the subtree is validated against the
// capability set, executed over the local tables — each scan fed through
// its access path (access.go) — and the result shipped across the link.
// The fetch is abandoned (before shipping) once the context's deadline
// passes or it is cancelled.
//
// The fragment reads its parameters' values from the query scratch.
// Where the template's cached plan has a slot for it, the fetch runs the
// fragment this source prepared there, preparing it on the first fetch
// through the slot (see executeTemplate); a fetch that finds the slot
// held by another, or whose fragment does not prepare, runs it as any
// other.
func (s *tableBacked) ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Local execution allocates from the calling query's scratch when one
	// rides the context — the fragment's runtime and operators as well as
	// its rows: the shipped result dies with that query.
	scratch := exec.ScratchFrom(ctx)
	if rows, ok, err := s.executeTemplate(ctx, scratch, subtree); ok {
		return rows, err
	}
	if err := validateSubtree(s.name, s.caps, subtree); err != nil {
		return nil, err
	}
	sourceCompiles.Add(1)
	params := scratch.Params()
	rt := exec.New(scratch, fragmentRuntime{src: s, root: subtree, scratch: scratch, params: params})
	return s.drainAndShip(ctx, scratch, subtree, rt, exec.Options{Scratch: scratch}, RequestSizeWith(subtree, params))
}

// drainAndShip builds subtree over rt, drains it and ships the rows with a
// request of req bytes.
func (s *tableBacked) drainAndShip(ctx context.Context, scratch *exec.Scratch, subtree plan.Node, rt exec.Runtime, opts exec.Options, req int) ([]datum.Row, error) {
	it, err := exec.BuildBatch(ctx, subtree, rt, opts)
	if err != nil {
		return nil, err
	}
	rows, err := exec.DrainBatchesScratch(it, scratch)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return shipResult(ctx, s.link, req, rows)
}

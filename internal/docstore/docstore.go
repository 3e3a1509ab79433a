// Package docstore implements a schema-less store in the spirit of §2's
// (Ashish) NETMARK: "data is managed in a schema-less manner; ... the
// 'database' can be nothing more than intelligent storage. Data could be
// stored generically and imposition of structure and semantics (schema) may
// be done by clients as needed."
//
// Documents carry arbitrary key/value fields plus an unstructured body.
// Clients impose schemas at read time (Impose), and the store can be
// adapted into a federation Source so imposed views participate in
// mediated queries.
package docstore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
)

// Document is one schema-less record.
type Document struct {
	ID     string
	Fields map[string]datum.Datum
	Body   string
}

// clone returns a deep-enough copy (fields map duplicated).
func (d *Document) clone() *Document {
	fields := make(map[string]datum.Datum, len(d.Fields))
	for k, v := range d.Fields {
		fields[k] = v
	}
	return &Document{ID: d.ID, Fields: fields, Body: d.Body}
}

// Store is a schema-less document store with keyword retrieval.
type Store struct {
	name string
	link *netsim.Link

	mu    sync.RWMutex
	docs  map[string]*Document
	index map[string]map[string]bool // token -> doc ids
}

// New creates an empty store.
func New(name string, link *netsim.Link) *Store {
	if link == nil {
		link = netsim.LocalLink()
	}
	return &Store{
		name:  name,
		link:  link,
		docs:  make(map[string]*Document),
		index: make(map[string]map[string]bool),
	}
}

// Name returns the store's name.
func (s *Store) Name() string { return s.name }

// Link returns the store's network link.
func (s *Store) Link() *netsim.Link { return s.link }

// Len returns the number of documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Put inserts or replaces a document. No schema is checked — that is the
// point.
func (s *Store) Put(doc Document) error {
	if doc.ID == "" {
		return fmt.Errorf("docstore: document needs an ID")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.docs[doc.ID]; ok {
		s.unindexLocked(old)
	}
	d := doc.clone()
	s.docs[doc.ID] = d
	s.indexLocked(d)
	return nil
}

// Get fetches a document by ID, charging the link. A found document is
// only returned if the transfer succeeded; under fault injection the
// round trip can fail and the caller must see that, not a silent miss.
// The store lock is released before the transfer: the link round trip
// sleeps out simulated latency, and holding s.mu across it would stall
// every writer for the duration.
func (s *Store) Get(ctx context.Context, id string) (*Document, bool, error) {
	s.mu.RLock()
	d, ok := s.docs[id]
	var out *Document
	if ok {
		out = d.clone()
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	if _, err := s.link.Transfer(ctx, 64+len(out.Body)); err != nil {
		return nil, true, err
	}
	return out, true, nil
}

// Delete removes a document.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[id]
	if !ok {
		return false
	}
	s.unindexLocked(d)
	delete(s.docs, id)
	return true
}

// ForEach visits every document in ID order. The callback receives a copy.
func (s *Store) ForEach(fn func(Document)) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.docs))
	for id := range s.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	docs := make([]*Document, len(ids))
	for i, id := range ids {
		docs[i] = s.docs[id].clone()
	}
	s.mu.RUnlock()
	for _, d := range docs {
		fn(*d)
	}
}

// Tokenize lower-cases and splits text into alphanumeric tokens.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

func (s *Store) tokensOf(d *Document) []string {
	toks := Tokenize(d.Body)
	for k, v := range d.Fields {
		toks = append(toks, Tokenize(k)...)
		toks = append(toks, Tokenize(v.Display())...)
	}
	return toks
}

func (s *Store) indexLocked(d *Document) {
	for _, tok := range s.tokensOf(d) {
		m := s.index[tok]
		if m == nil {
			m = make(map[string]bool)
			s.index[tok] = m
		}
		m[d.ID] = true
	}
}

func (s *Store) unindexLocked(d *Document) {
	for _, tok := range s.tokensOf(d) {
		if m := s.index[tok]; m != nil {
			delete(m, d.ID)
			if len(m) == 0 {
				delete(s.index, tok)
			}
		}
	}
}

// Search returns the IDs of documents containing every keyword (conjunctive
// keyword search — §2's "basic keyword search capabilities across the
// different sources"). IDs are sorted for determinism.
func (s *Store) Search(ctx context.Context, keywords ...string) ([]string, error) {
	s.mu.RLock()
	var result map[string]bool
	for _, kw := range keywords {
		toks := Tokenize(kw)
		for _, tok := range toks {
			hits := s.index[tok]
			if result == nil {
				result = make(map[string]bool, len(hits))
				for id := range hits {
					result[id] = true
				}
				continue
			}
			for id := range result {
				if !hits[id] {
					delete(result, id)
				}
			}
		}
	}
	out := make([]string, 0, len(result))
	for id := range result {
		out = append(out, id)
	}
	sort.Strings(out)
	// The result set is complete; release the index before the link
	// round trip so writers aren't stalled behind simulated latency.
	s.mu.RUnlock()
	if _, err := s.link.Transfer(ctx, 32*(1+len(out))); err != nil {
		return nil, err
	}
	return out, nil
}

// Impose projects the store's documents onto a relational schema — the
// client-side, on-demand schema imposition of §2. mapping binds column
// names to document field keys (identity when absent). Documents missing a
// field yield NULL; fields whose value cannot coerce to the column type
// count as conversion errors but do not abort the read. The result
// transfer aborts on cancellation instead of charging (or sleeping out)
// the link.
func (s *Store) Impose(ctx context.Context, sch *schema.Table, mapping map[string]string) ([]datum.Row, int, error) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.docs))
	for id := range s.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var rows []datum.Row
	errs := 0
	bytes := 0
	for _, id := range ids {
		d := s.docs[id]
		row := make(datum.Row, sch.Arity())
		for i, col := range sch.Columns {
			field := col.Name
			if m, ok := mapping[col.Name]; ok {
				field = m
			}
			v, ok := d.Fields[field]
			if !ok {
				row[i] = datum.Null
				continue
			}
			cv, err := datum.Coerce(v, col.Kind)
			if err != nil {
				errs++
				row[i] = datum.Null
				continue
			}
			row[i] = cv
		}
		rows = append(rows, row)
		bytes += datum.RowWireSize(row)
	}
	// Rows are fully materialized copies; transfer outside the lock so
	// the (possibly slept-out) round trip doesn't stall writers.
	s.mu.RUnlock()
	if _, err := s.link.Transfer(ctx, 64+bytes); err != nil {
		return nil, errs, err
	}
	return rows, errs, nil
}

// AsSource adapts the store into a federation Source exposing one imposed
// relational view. The source is scan-only: every filter/join/aggregate
// over it runs at the mediator — exactly §2's "the mediator [is] a mere
// router of information" with computation pushed to the client.
func (s *Store) AsSource(table *schema.Table, mapping map[string]string) federation.Source {
	cat := catalog.NewSourceCatalog(s.name)
	cat.AddTable(table, schema.DefaultStats(table, int64(s.Len())))
	return &docSource{store: s, table: table, mapping: mapping, cat: cat}
}

type docSource struct {
	store   *Store
	table   *schema.Table
	mapping map[string]string
	cat     *catalog.SourceCatalog
}

func (d *docSource) Name() string                    { return d.store.name }
func (d *docSource) Catalog() *catalog.SourceCatalog { return d.cat }
func (d *docSource) Capabilities() federation.Caps   { return federation.ScanOnly() }
func (d *docSource) Link() *netsim.Link              { return d.store.link }

// ExecuteCtx implements federation.Source.
func (d *docSource) ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scan, ok := subtree.(*plan.Scan)
	if !ok {
		return nil, fmt.Errorf("docstore: source %s can only execute scans, got %s", d.store.name, subtree.Describe())
	}
	if !strings.EqualFold(scan.Table, d.table.Name) {
		return nil, fmt.Errorf("docstore: source %s has no table %s", d.store.name, scan.Table)
	}
	rows, _, err := d.store.Impose(ctx, d.table, d.mapping)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

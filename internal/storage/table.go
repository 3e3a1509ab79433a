// Package storage implements the in-memory storage engine that backs every
// simulated data source and the central warehouse: heap tables with
// schema-checked inserts, flat hash indexes probed by the wrappers' access
// paths, and statistics collection for the optimizer.
package storage

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/datum"
	"repro/internal/schema"
)

// Table is a heap table with optional secondary indexes. All methods are
// safe for concurrent use. Index chains hold int32 row positions, so a
// table is limited to 2^31-1 rows.
//
// The heap is copy-on-write. A stored row is never modified, and the slice
// of row headers is never written below its length once published: Insert
// appends past it, and Update, Delete and Truncate install a fresh slice.
// So a Snapshot is the slice itself, capped at its length, and costs
// nothing.
type Table struct {
	mu      sync.RWMutex
	schema  *schema.Table
	rows    []datum.Row
	indexes []*Index // in creation order
	version int64    // bumped on every mutation; used for staleness tracking
	notify  notifier
}

// NewTable creates an empty table for the given schema. If the schema
// declares a primary key a unique hash index named "primary" is created
// automatically.
func NewTable(sch *schema.Table) *Table {
	t := &Table{schema: sch}
	if len(sch.Key) > 0 {
		t.indexes = append(t.indexes, newIndex("primary", sch.Key, true, 0))
	}
	return t
}

// Schema returns the table's schema descriptor.
func (t *Table) Schema() *schema.Table { return t.schema }

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Version returns a counter that increases with every mutation.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Insert validates and appends a row, maintaining all indexes. The row is
// cloned, so the caller may reuse its backing slice.
func (t *Table) Insert(r datum.Row) error {
	if err := t.schema.CheckRow(r); err != nil {
		return err
	}
	t.mu.Lock()
	row := datum.CloneRow(r)
	for _, idx := range t.indexes {
		if err := idx.check(row, t.rows); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	for _, idx := range t.indexes {
		idx.add(row, t.rows)
	}
	t.rows = append(t.rows, row)
	t.version++
	ver := t.version
	t.mu.Unlock()
	t.notify.publish(Change{Table: t.schema.Name, Kind: ChangeInsert, Rows: 1, Version: ver})
	return nil
}

// InsertBatch inserts rows, stopping at the first error.
func (t *Table) InsertBatch(rows []datum.Row) error {
	for i, r := range rows {
		if err := t.Insert(r); err != nil {
			return fmt.Errorf("storage: batch insert row %d: %w", i, err)
		}
	}
	return nil
}

// Update replaces every row matching pred with fn applied to a copy of it
// and returns the number of rows updated. It is all or nothing: the new
// heap and its rebuilt indexes are installed only when every new row
// passes the schema check and every unique index; otherwise the table is
// left as it was and the error returned.
func (t *Table) Update(pred func(datum.Row) bool, fn func(datum.Row) datum.Row) (int, error) {
	t.mu.Lock()
	var rows []datum.Row // the new heap, copied from t.rows at the first match
	n := 0
	for i, r := range t.rows {
		if !pred(r) {
			continue
		}
		nr := fn(datum.CloneRow(r))
		if err := t.schema.CheckRow(nr); err != nil {
			t.mu.Unlock()
			return 0, err
		}
		if rows == nil {
			rows = slices.Clone(t.rows)
		}
		rows[i] = nr
		n++
	}
	if n == 0 {
		t.mu.Unlock()
		return 0, nil
	}
	indexes, err := t.reindex(rows)
	if err != nil {
		t.mu.Unlock()
		return 0, err
	}
	t.rows, t.indexes = rows, indexes
	t.version++
	ver := t.version
	t.mu.Unlock()
	t.notify.publish(Change{Table: t.schema.Name, Kind: ChangeUpdate, Rows: n, Version: ver})
	return n, nil
}

// Delete removes every row matching pred and returns the count removed.
func (t *Table) Delete(pred func(datum.Row) bool) int {
	t.mu.Lock()
	kept := make([]datum.Row, 0, len(t.rows))
	for _, r := range t.rows {
		if !pred(r) {
			kept = append(kept, r)
		}
	}
	n := len(t.rows) - len(kept)
	var ver int64
	if n > 0 {
		t.rows = kept
		// Rows that satisfied every unique index still do without some of
		// their neighbours, so reindexing them cannot fail.
		t.indexes, _ = t.reindex(kept)
		t.version++
		ver = t.version
	}
	t.mu.Unlock()
	if n > 0 {
		t.notify.publish(Change{Table: t.schema.Name, Kind: ChangeDelete, Rows: n, Version: ver})
	}
	return n
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	n := len(t.rows)
	t.rows = nil
	t.indexes, _ = t.reindex(nil) // nothing to index, nothing to fail
	t.version++
	ver := t.version
	t.mu.Unlock()
	t.notify.publish(Change{Table: t.schema.Name, Kind: ChangeTruncate, Rows: n, Version: ver})
}

// reindex builds t's indexes afresh over rows, enforcing every unique one;
// the caller installs the result together with rows.
func (t *Table) reindex(rows []datum.Row) ([]*Index, error) {
	out := make([]*Index, len(t.indexes))
	for i, idx := range t.indexes {
		out[i] = newIndex(idx.name, idx.cols, idx.unique, len(rows))
		if err := out[i].build(rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scan calls fn for every row until fn returns false. The row passed to fn
// must not be retained or mutated.
func (t *Table) Scan(fn func(datum.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !fn(r) {
			return
		}
	}
}

// Snapshot returns a point-in-time view of all rows without copying
// anything: the header slice and the datum arrays are the heap's own,
// which no later write touches (see Table). Its capacity is its length,
// so appending to it reallocates rather than reach the table. Callers must
// not mutate the returned headers or rows; the engine block-copies rows
// that cross its public boundary.
func (t *Table) Snapshot() []datum.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// CreateIndex builds a secondary index over the named columns. unique
// enforces key uniqueness on subsequent inserts and fails if existing rows
// already violate it.
func (t *Table) CreateIndex(name string, cols []string, unique bool) error {
	offs := make([]int, len(cols))
	for i, c := range cols {
		o := t.schema.ColumnIndex(c)
		if o < 0 {
			return fmt.Errorf("storage: table %s has no column %s", t.schema.Name, c)
		}
		offs[i] = o
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, idx := range t.indexes {
		if idx.name == name {
			return fmt.Errorf("storage: index %s already exists on %s", name, t.schema.Name)
		}
	}
	idx := newIndex(name, offs, unique, len(t.rows))
	if err := idx.build(t.rows); err != nil {
		return err
	}
	t.indexes = append(t.indexes, idx)
	return nil
}

// probeMaxKeyShare bounds the keys one Probe accepts to this share of the
// table's rows: past it the chain walks and the position sort stop paying
// for themselves against one pass over the heap.
const probeMaxKeyShare = 4

// Probe is the indexed read: it finds the rows whose column col (a schema
// offset) equals any of keys under datum.Equal — SQL `=`, so INT and FLOAT
// meet by value and a NULL on either side matches nothing — and appends
// their headers to rows[:0] in heap order, each row once however many keys
// it matches. The headers share their datum arrays with the heap under
// Snapshot's contract. ok is false, and nothing is read, when no
// single-column index covers col or when keys number more than one per
// probeMaxKeyShare rows; the caller then scans.
//
// pos is working space for row positions. Both buffers are the caller's:
// with capacity for every match the probe allocates nothing, short of it
// they grow as append does.
func (t *Table) Probe(col int, keys []datum.Datum, pos []int32, rows []datum.Row) ([]datum.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var idx *Index
	for _, cand := range t.indexes {
		if len(cand.cols) == 1 && cand.cols[0] == col {
			idx = cand
			break
		}
	}
	if idx == nil || len(keys) > len(t.rows)/probeMaxKeyShare {
		return nil, false
	}
	pos = pos[:0]
	for i := range keys {
		pos = idx.appendEqual(pos, keys[i:i+1], t.rows)
	}
	// Chains run newest first and keys arrive in any order, repeated or
	// equal across kinds (5 and 5.0): sorting restores heap order, and a
	// row found twice then sits next to itself.
	slices.Sort(pos)
	pos = slices.Compact(pos)
	rows = rows[:0]
	for _, p := range pos {
		rows = append(rows, t.rows[p])
	}
	return rows, true
}

// Stats computes fresh statistics by scanning the table.
func (t *Table) Stats() *schema.TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := &schema.TableStats{
		Rows: int64(len(t.rows)),
		Cols: make([]schema.ColStats, len(t.schema.Columns)),
	}
	if len(t.rows) == 0 {
		st.RowWidth = t.schema.RowWidth()
		for i := range st.Cols {
			st.Cols[i] = schema.ColStats{Distinct: 0, Min: datum.Null, Max: datum.Null}
		}
		return st
	}
	width := 0
	distinct := make([]map[uint64]struct{}, len(t.schema.Columns))
	nulls := make([]int64, len(t.schema.Columns))
	mins := make([]datum.Datum, len(t.schema.Columns))
	maxs := make([]datum.Datum, len(t.schema.Columns))
	for i := range distinct {
		distinct[i] = make(map[uint64]struct{})
		mins[i], maxs[i] = datum.Null, datum.Null
	}
	for _, r := range t.rows {
		width += datum.RowWireSize(r)
		for i, d := range r {
			if d.IsNull() {
				nulls[i]++
				continue
			}
			distinct[i][d.Hash()] = struct{}{}
			if mins[i].IsNull() || datum.Compare(d, mins[i]) < 0 {
				mins[i] = d
			}
			if maxs[i].IsNull() || datum.Compare(d, maxs[i]) > 0 {
				maxs[i] = d
			}
		}
	}
	st.RowWidth = width / len(t.rows)
	for i := range st.Cols {
		st.Cols[i] = schema.ColStats{
			Distinct: int64(len(distinct[i])),
			NullFrac: float64(nulls[i]) / float64(len(t.rows)),
			Min:      mins[i],
			Max:      maxs[i],
		}
	}
	return st
}

// Index is a chained hash index over row positions, laid out as two flat
// int32 arrays in the manner of exec's key index: head maps a Fibonacci
// slot of the key hash to the newest row in the slot's chain, next maps
// each row position to the next older one. Links are stored as position+1
// so zero ends a chain. No hash and no key is stored — a walk settles
// equality against the heap row itself — so a row costs its next link and
// its share of head (load factor between one half and one): 8 to 12 bytes.
type Index struct {
	name   string
	cols   []int
	unique bool
	head   []int32
	next   []int32 // len(next) rows are indexed
	shift  uint    // 64 - log2(len(head))
}

// minIndexSlots keeps an empty index probeable without a length check.
const minIndexSlots = 8

// newIndex sizes the index for capacity rows so building over an existing
// heap never regrows.
func newIndex(name string, cols []int, unique bool, capacity int) *Index {
	idx := &Index{name: name, cols: cols, unique: unique, next: make([]int32, 0, capacity)}
	idx.resize(max(capacity, minIndexSlots))
	return idx
}

// resize replaces head with an empty array of at least n slots (a power of
// two); the caller relinks.
func (idx *Index) resize(n int) {
	log := uint(bits.Len(uint(n - 1)))
	idx.head = make([]int32, 1<<log)
	idx.shift = 64 - log
}

// slot picks the chain for a key hash; see exec's keyIndex.slot for why
// the multiplication.
func (idx *Index) slot(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> idx.shift)
}

func (idx *Index) link(pos int, r datum.Row) {
	s := idx.slot(datum.HashRow(r, idx.cols))
	idx.next[pos] = idx.head[s]
	idx.head[s] = int32(pos) + 1
}

// add indexes r as the row at position len(heap), the rows indexed so far.
// A full head doubles and every chain is relinked from the heap.
func (idx *Index) add(r datum.Row, heap []datum.Row) {
	pos := len(idx.next)
	idx.next = append(idx.next, 0)
	if pos >= len(idx.head) {
		idx.resize(2 * len(idx.head))
		for p, old := range heap {
			idx.link(p, old)
		}
	}
	idx.link(pos, r)
}

// build indexes heap into the empty idx, checking uniqueness row by row.
func (idx *Index) build(heap []datum.Row) error {
	for pos, r := range heap {
		if err := idx.check(r, heap[:pos]); err != nil {
			return err
		}
		idx.add(r, heap[:pos])
	}
	return nil
}

func (idx *Index) keyOf(r datum.Row) datum.Row {
	k := make(datum.Row, len(idx.cols))
	for i, c := range idx.cols {
		k[i] = r[c]
	}
	return k
}

// check enforces uniqueness against the existing heap. Keys are compared
// in place with grouping equality (NULL equals NULL), as RowsEqual does.
func (idx *Index) check(r datum.Row, heap []datum.Row) error {
	if !idx.unique {
		return nil
	}
	for l := idx.head[idx.slot(datum.HashRow(r, idx.cols))]; l != 0; l = idx.next[l-1] {
		if idx.sameKey(heap[l-1], r) {
			return fmt.Errorf("storage: unique index %s: duplicate key %v", idx.name, idx.keyOf(r))
		}
	}
	return nil
}

func (idx *Index) sameKey(a, b datum.Row) bool {
	for _, c := range idx.cols {
		if datum.Compare(a[c], b[c]) != 0 {
			return false
		}
	}
	return true
}

// firstCol addresses a one-datum key as a row for datum.HashRow, so a
// probe key hashes exactly as the indexed column did.
var firstCol = []int{0}

// appendEqual appends the positions of the rows whose indexed column —
// the index must be single-column — is datum.Equal to key[0], newest
// first.
func (idx *Index) appendEqual(pos []int32, key datum.Row, heap []datum.Row) []int32 {
	c := idx.cols[0]
	for l := idx.head[idx.slot(datum.HashRow(key, firstCol))]; l != 0; l = idx.next[l-1] {
		if datum.Equal(heap[l-1][c], key[0]) {
			pos = append(pos, l-1)
		}
	}
	return pos
}

// SortRows sorts rows by the given column offsets ascending (helper used by
// tests and the merge-join path).
func SortRows(rows []datum.Row, cols []int) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range cols {
			if cmp := datum.Compare(rows[i][c], rows[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

package exec

import (
	"fmt"
	"math/bits"

	"repro/internal/datum"
	"repro/internal/plan"
)

// keyIndex is the one keyed lookup structure in exec: a chained hash index
// from a 64-bit key hash to int32 positions in an array the caller owns
// (join build rows, distinct semi-join keys, IN-list literals, groups). It
// is three flat arrays — no per-key allocation — and knows nothing about
// the keys themselves: first/after walk the positions whose stored hash
// equals the probe's, and the caller settles real equality (datum.Equal,
// RowsEqual) on those candidates only.
//
// Links are stored as position+1 so the zeroed arrays a Scratch hands out,
// and the zero value itself, are already an empty index.
type keyIndex struct {
	head   []int32  // slot → link to the first position in the slot's chain
	next   []int32  // position → link to the next position in the same chain
	hashes []uint64 // position → full key hash
	n      int      // positions handed out by add
	shift  uint     // 64 - log2(len(head))
}

// newKeyIndex sizes an index for up to capacity positions (load factor at
// most one), drawing its arrays from s (plain heap when s is nil).
func newKeyIndex(s *Scratch, capacity int) keyIndex {
	log := uint(0)
	if capacity > 1 {
		log = uint(bits.Len(uint(capacity - 1)))
	}
	return keyIndex{
		head:   s.MakeInt32s(1 << log),
		next:   s.MakeInt32s(capacity),
		hashes: s.MakeUint64s(capacity),
		shift:  64 - log,
	}
}

// slot picks h's chain by Fibonacci hashing: the top bits of the product
// depend on every bit of h, so FNV's weakly mixed low bits (short
// sequential keys) do not pile into a few slots.
func (ix *keyIndex) slot(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> ix.shift)
}

// add appends the next position, ix.n, with hash h. Positions added this
// way chain newest-first; callers that add never depend on chain order.
// Most indexes never fill: join builds, semi-join keys and IN-lists are
// sized exactly, and a group table checks for room first and doubles
// itself, index included, from the query scratch (see groupTable.grow).
// Only the value sets of DISTINCT aggregates, which start empty, reach the
// fallback below: a full index is rebuilt at twice the size on the heap.
func (ix *keyIndex) add(h uint64) {
	if ix.n == len(ix.hashes) {
		*ix = ix.rehashed(nil, 2*ix.n+8)
	}
	p := ix.n
	ix.n++
	ix.hashes[p] = h
	s := ix.slot(h)
	ix.next[p] = ix.head[s]
	ix.head[s] = int32(p) + 1
}

// rehashed returns a copy of the index with room for capacity positions,
// its arrays drawn from s (plain heap when s is nil).
func (ix *keyIndex) rehashed(s *Scratch, capacity int) keyIndex {
	grown := newKeyIndex(s, capacity)
	for _, h := range ix.hashes[:ix.n] {
		grown.add(h)
	}
	return grown
}

// link chains every position whose hash is already in ix.hashes, is not
// marked in skip, and whose slot lies in [lo, hi). It walks positions from
// the last to the first and pushes each on the front of its chain, so every
// chain lists positions in ascending order — a probe visits build rows in
// the order they arrived. Calls over disjoint slot ranges touch disjoint
// elements of head and next and may run concurrently.
func (ix *keyIndex) link(skip []bool, lo, hi int) {
	for p := len(ix.hashes) - 1; p >= 0; p-- {
		if skip[p] {
			continue
		}
		s := ix.slot(ix.hashes[p])
		if s < lo || s >= hi {
			continue
		}
		ix.next[p] = ix.head[s]
		ix.head[s] = int32(p) + 1
	}
}

// first returns the first position whose hash is h, or -1.
func (ix *keyIndex) first(h uint64) int32 {
	if len(ix.head) == 0 {
		return -1
	}
	return ix.match(ix.head[ix.slot(h)], h)
}

// after returns the next position after p whose hash is h, or -1.
func (ix *keyIndex) after(p int32, h uint64) int32 {
	return ix.match(ix.next[p], h)
}

func (ix *keyIndex) match(link int32, h uint64) int32 {
	for ; link != 0; link = ix.next[link-1] {
		if ix.hashes[link-1] == h {
			return link - 1
		}
	}
	return -1
}

// datumSet is a set of non-NULL datums in insertion order: a keyIndex over
// vals. Callers pass each value's hash so they can keep it for other uses.
// The zero value is an empty set that grows on the heap.
type datumSet struct {
	ix   keyIndex
	vals []datum.Datum // position → value; len(vals) == ix.n
}

func newDatumSet(s *Scratch, capacity int) datumSet {
	return datumSet{ix: newKeyIndex(s, capacity), vals: s.MakeDatums(capacity)[:0]}
}

// contains reports whether v, whose hash is h, equals a member. Equal
// datums hash alike across INT and FLOAT, so 1 finds 1.0; a value of some
// other kind lands on no equal candidate and simply does not match.
func (s *datumSet) contains(v datum.Datum, h uint64) bool {
	for p := s.ix.first(h); p >= 0; p = s.ix.after(p, h) {
		if datum.Equal(v, s.vals[p]) {
			return true
		}
	}
	return false
}

// add appends v, whose hash is h, without checking for a duplicate.
func (s *datumSet) add(v datum.Datum, h uint64) {
	s.ix.add(h)
	s.vals = append(s.vals, v)
}

// hashes lists the members' hashes in insertion order.
func (s *datumSet) hashes() []uint64 { return s.ix.hashes[:s.ix.n] }

// aggCell is the running state of one aggregate in one group.
type aggCell struct {
	count    int64
	sumF     float64
	sumI     int64 // integer image of the sum, exact while sumIsInt
	sumIsInt bool  // SUM stays INT while every input is INT and sumI has not overflowed
	minmax   datum.Datum
}

// groupTable is the one grouping structure in exec, behind GROUP BY (one
// table, or one per partition worker) and SELECT DISTINCT (no aggregates):
// a keyIndex over groups in first-seen order, with their keys and their
// aggregate cells in two flat arenas. The hash nominates candidates and
// datum.RowsEqual decides, so NULL groups with NULL, 1 with 1.0, and
// unequal keys that collide in 64 bits stay apart.
//
// Its arrays come from the query scratch (the heap when there is none),
// sized once from the optimizer's group estimate (plan.Aggregate.Groups).
// When the groups outgrow them the table doubles explicitly: grow copies
// it into arrays twice the size, and the old ones stay in the scratch
// until the query ends, so a table holds at most twice its final size. A
// pooled scratch keeps those blocks, as it keeps a join build's, and the
// next query of the same shape groups without touching the heap.
type groupTable struct {
	s         *Scratch
	ix        keyIndex
	nkeys     int
	specs     []plan.AggSpec
	keys      []datum.Datum // group → its nkeys key values
	firstSeen []int32       // group → input row index that created it
	cells     []aggCell     // group → its len(specs) aggregate states
	distinct  []datumSet    // cell → values seen, grown by the DISTINCT aggregates only
}

// Bounds on a group table's first capacity: without an estimate (SELECT
// DISTINCT, plans the optimizer did not annotate) it starts at
// defaultGroups; an estimate past maxEstimatedGroups is not trusted with
// that much scratch up front, and the table grows the rest of the way.
const (
	defaultGroups      = 64
	maxEstimatedGroups = 1 << 14
)

// newGroupTable returns an empty table sized for estimate groups (0:
// unknown), its arrays drawn from s.
func newGroupTable(s *Scratch, nkeys int, specs []plan.AggSpec, estimate int) *groupTable {
	t := &groupTable{s: s, nkeys: nkeys, specs: specs}
	switch {
	case estimate <= 0:
		estimate = defaultGroups
	case estimate > maxEstimatedGroups:
		estimate = maxEstimatedGroups
	}
	t.grow(estimate)
	return t
}

// grow moves the table into arrays with room for capacity groups.
func (t *groupTable) grow(capacity int) {
	s := t.s
	*t = groupTable{
		s:         s,
		ix:        t.ix.rehashed(s, capacity),
		nkeys:     t.nkeys,
		specs:     t.specs,
		keys:      append(s.MakeDatums(capacity * t.nkeys)[:0], t.keys...),
		firstSeen: append(s.MakeInt32s(capacity)[:0], t.firstSeen...),
		cells:     append(s.MakeAggCells(capacity * len(t.specs))[:0], t.cells...),
		distinct:  t.distinct,
	}
}

func (t *groupTable) len() int { return t.ix.n }

// group finds the group whose key equals key (hash h), or appends it as
// first seen at input row rowIdx. key is copied, so callers may reuse it.
func (t *groupTable) group(key datum.Row, h uint64, rowIdx int) (g int32, isNew bool) {
	for c := t.ix.first(h); c >= 0; c = t.ix.after(c, h) {
		if datum.RowsEqual(key, t.keys[int(c)*t.nkeys:(int(c)+1)*t.nkeys]) {
			return c, false
		}
	}
	if t.ix.n == len(t.ix.hashes) {
		t.grow(2 * t.ix.n)
	}
	g = int32(t.ix.n)
	t.ix.add(h)
	t.keys = append(t.keys, key...)
	t.firstSeen = append(t.firstSeen, int32(rowIdx))
	for range t.specs {
		t.cells = append(t.cells, aggCell{sumIsInt: true})
	}
	return g, true
}

// fold adds input row rowIdx, its key and arguments evaluated, to its group.
func (t *groupTable) fold(key datum.Row, h uint64, rowIdx int, args []datum.Datum) error {
	g, _ := t.group(key, h, rowIdx)
	for j := range t.specs {
		if err := t.add(g, j, args[j]); err != nil {
			return err
		}
	}
	return nil
}

// add folds one evaluated argument into aggregate j of group g; COUNT(*)
// ignores it.
func (t *groupTable) add(g int32, j int, v datum.Datum) error {
	sp := &t.specs[j]
	cell := int(g)*len(t.specs) + j
	c := &t.cells[cell]
	if sp.Star {
		c.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if sp.Distinct {
		for len(t.distinct) <= cell {
			t.distinct = append(t.distinct, datumSet{})
		}
		// Equal hashes only nominate a candidate; datum.Equal decides, so
		// two distinct values that collide in 64 bits both count.
		h := v.Hash()
		if t.distinct[cell].contains(v, h) {
			return nil
		}
		t.distinct[cell].add(v, h)
	}
	c.count++
	switch sp.Func {
	case "SUM", "AVG":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("exec: %s requires numeric input, got %s", sp.Func, v.Kind())
		}
		c.sumF += f
		if v.Kind() != datum.KindInt {
			c.sumIsInt = false
		} else if c.sumIsInt {
			// A sum whose sign differs from both addends' wrapped around
			// int64: from there on the float image answers.
			sum := c.sumI + v.Int()
			c.sumIsInt = (c.sumI^sum)&(v.Int()^sum) >= 0
			c.sumI = sum
		}
	case "MIN":
		if c.minmax.IsNull() || datum.Compare(v, c.minmax) < 0 {
			c.minmax = v
		}
	case "MAX":
		if c.minmax.IsNull() || datum.Compare(v, c.minmax) > 0 {
			c.minmax = v
		}
	}
	return nil
}

// finalize appends group g's output row to dst: its key columns, then one
// value per aggregate.
func (t *groupTable) finalize(g int32, dst []datum.Datum) ([]datum.Datum, error) {
	dst = append(dst, t.keys[int(g)*t.nkeys:(int(g)+1)*t.nkeys]...)
	for j, sp := range t.specs {
		c := &t.cells[int(g)*len(t.specs)+j]
		v := datum.Null
		switch {
		case sp.Func == "COUNT":
			v = datum.NewInt(c.count)
		case sp.Func == "MIN" || sp.Func == "MAX":
			v = c.minmax
		case sp.Func != "SUM" && sp.Func != "AVG":
			return nil, fmt.Errorf("exec: unknown aggregate %s", sp.Func)
		case c.count == 0: // SUM and AVG of no values are NULL
		case sp.Func == "AVG":
			v = datum.NewFloat(c.sumF / float64(c.count))
		case c.sumIsInt:
			v = datum.NewInt(c.sumI)
		default:
			v = datum.NewFloat(c.sumF)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// finalizeGroups renders every group of tables as an output row in one
// first-seen order: a merge, since each table lists its own groups in that
// order already. The rows and their one arena come from s (the heap when
// s is nil).
func finalizeGroups(s *Scratch, tables ...*groupTable) ([]datum.Row, error) {
	total := 0
	for _, t := range tables {
		total += t.len()
	}
	width := tables[0].nkeys + len(tables[0].specs)
	out := s.MakeRows(total)[:0]
	arena := s.MakeDatums(total * width)[:0]
	var posBuf [16]int // the merge cursors stay on the stack up to 16 partitions
	pos := append(posBuf[:0], make([]int, len(tables))...)
	for len(out) < total {
		best := -1
		for p, t := range tables {
			if pos[p] < t.len() && (best < 0 || t.firstSeen[pos[p]] < tables[best].firstSeen[pos[best]]) {
				best = p
			}
		}
		var err error
		if arena, err = tables[best].finalize(int32(pos[best]), arena); err != nil {
			return nil, err
		}
		pos[best]++
		out = append(out, arena[len(arena)-width:len(arena):len(arena)])
	}
	return out, nil
}

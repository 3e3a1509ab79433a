package exec

import (
	"math/bits"

	"repro/internal/datum"
)

// keyIndex is the one keyed lookup structure in exec: a chained hash index
// from a 64-bit key hash to int32 positions in an array the caller owns
// (join build rows, distinct semi-join keys, IN-list literals). It is three
// flat arrays — no per-key allocation — and knows nothing about the keys
// themselves: first/after walk the positions whose stored hash equals the
// probe's, and the caller settles real equality (datum.Equal, RowsEqual)
// on those candidates only.
//
// Links are stored as position+1 so the zeroed arrays a Scratch hands out
// are already an empty index.
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
func (ix *keyIndex) add(h uint64) {
	p := ix.n
	ix.n++
	ix.hashes[p] = h
	s := ix.slot(h)
	ix.next[p] = ix.head[s]
	ix.head[s] = int32(p) + 1
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
	if len(s.vals) == 0 {
		return false
	}
	for p := s.ix.first(h); p >= 0; p = s.ix.after(p, h) {
		if datum.Equal(v, s.vals[p]) {
			return true
		}
	}
	return false
}

// add appends v, whose hash is h, without checking for a duplicate. A full
// index is rebuilt at twice the size on the heap first, so a set sized
// exactly (semi-join keys, IN-lists) never reallocates and one of unknown
// size (DISTINCT aggregates) grows amortized.
func (s *datumSet) add(v datum.Datum, h uint64) {
	if len(s.vals) == len(s.ix.hashes) {
		grown := newKeyIndex(nil, 2*len(s.vals)+8)
		for _, old := range s.hashes() {
			grown.add(old)
		}
		s.ix = grown
	}
	s.ix.add(h)
	s.vals = append(s.vals, v)
}

// hashes lists the members' hashes in insertion order.
func (s *datumSet) hashes() []uint64 { return s.ix.hashes[:s.ix.n] }

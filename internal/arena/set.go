package arena

import "unsafe"

// Set is a query's allocator: one Slab per element type drawn from it.
// New, Make and Copy draw from a Set, and a nil Set allocates on the heap,
// so one code path serves a query arena and a heap copy alike. The front
// end's sqlparse.Arena holds one for the AST and the plan compiled from
// it, and exec.Scratch one for the executor's operators and batches. Like
// a Slab, a Set is not safe for concurrent use.
type Set struct {
	// slabs holds one slab per element type drawn, in the order the set
	// first drew each. A pooled set keeps them, so a warm query adds none.
	slabs []anySlab
	// index finds a type's slab. It is open-addressed: a type's entry,
	// its slab's position in slabs plus one, sits at the first free entry
	// from where the type hashes (0 marks a free entry), and a lookup
	// probes from there to the type's slab or a free entry. At most half
	// the entries are full, so a probe ends soon.
	index []int32
}

// anySlab is what a Set needs of its slabs without knowing their element
// type. Len, which exec.Scratch lacks, keeps the method set apart from
// Scratch's own Reset and Bytes: the lockorder check resolves interface
// calls by method names, and those two take Scratch's lock.
type anySlab interface {
	Reset()
	Bytes() int64
	Len() int64
}

// slabKey identifies t's element type by t's type word: the address of
// the runtime's itab pairing anySlab with t's Slab type, one per element
// type and never freed.
func slabKey(t anySlab) uintptr { return (*[2]uintptr)(unsafe.Pointer(&t))[0] }

// hashMul spreads type words over an index: a key's probe starts at the
// top bits of its product with hashMul (Fibonacci hashing), masked to the
// index's power-of-two length.
const hashMul = 0x9E3779B97F4A7C15

// drawnSlab returns s's slab of T, or nil if s has not drawn a T. It is
// small enough to inline into every draw, so finding a slab costs a probe
// and no call; on an empty index the probe starts past the end.
func drawnSlab[T any](s *Set) *Slab[T] {
	n := uint(len(s.index))
	i := uint(uint64(slabKey((*Slab[T])(nil)))*hashMul>>32) & (n - 1)
	for ; i < n && s.index[i] != 0; i = (i + 1) & (n - 1) {
		if t, ok := s.slabs[s.index[i]-1].(*Slab[T]); ok {
			return t
		}
	}
	return nil
}

// firstSlabs is the room a Set makes for slabs at its first draw, a power
// of two: no set in the benchmark's workloads draws more than 20 element
// types, so a fresh set sizes its slab list and index once instead of at
// every doubling.
const firstSlabs = 32

// addSlab adds s's slab of T, the first time s draws a T.
func addSlab[T any](s *Set) *Slab[T] {
	t := new(Slab[T])
	if s.slabs == nil {
		s.slabs = make([]anySlab, 0, firstSlabs)
	}
	s.slabs = append(s.slabs, t)
	if 2*len(s.slabs) > len(s.index) {
		s.index = make([]int32, max(2*firstSlabs, 2*len(s.index)))
		for j := range s.slabs {
			s.place(j)
		}
	} else {
		s.place(len(s.slabs) - 1)
	}
	return t
}

// place enters slabs[j] at the first free entry of its probe.
func (s *Set) place(j int) {
	n := uint(len(s.index))
	i := uint(uint64(slabKey(s.slabs[j]))*hashMul>>32) & (n - 1)
	for s.index[i] != 0 {
		i = (i + 1) & (n - 1)
	}
	s.index[i] = int32(j + 1)
}

// New returns a pointer to a copy of v drawn from s, or from the heap
// when s is nil. Like everything from s, it dies at s's Reset.
func New[T any](s *Set, v T) *T {
	if s == nil {
		p := new(T)
		*p = v
		return p
	}
	t := drawnSlab[T](s)
	if t == nil {
		t = addSlab[T](s)
	}
	return t.New(v)
}

// Make returns a zeroed slice of length and capacity n drawn from s, or
// from the heap when s is nil.
func Make[T any](s *Set, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	t := drawnSlab[T](s)
	if t == nil {
		t = addSlab[T](s)
	}
	return t.Make(n)
}

// Copy clones src into s, or onto the heap when s is nil, and returns the
// copy (nil for an empty src).
func Copy[T any](s *Set, src []T) []T {
	if s == nil {
		if len(src) == 0 {
			return nil
		}
		return append([]T(nil), src...)
	}
	t := drawnSlab[T](s)
	if t == nil {
		t = addSlab[T](s)
	}
	return t.Copy(src)
}

// Holds reports whether p points at a value s handed out since its last
// Reset: false for a heap value, and for any value when s is nil.
func Holds[T any](s *Set, p *T) bool {
	if s == nil {
		return false
	}
	t := drawnSlab[T](s)
	return t != nil && t.Holds(p)
}

// Reset recycles every slab's blocks for reuse; everything drawn from s
// becomes invalid.
func (s *Set) Reset() {
	for _, t := range s.slabs {
		t.Reset()
	}
}

// Bytes reports the payload footprint of everything drawn from s since
// its last Reset, summed over its slabs (0 for a nil s).
func (s *Set) Bytes() int64 {
	if s == nil {
		return 0
	}
	var b int64
	for _, t := range s.slabs {
		b += t.Bytes()
	}
	return b
}

// Block is one exactly sized heap block of T, for a deep copy made in two
// walks over the same values: the sizing walk counts them, and the copying
// walk carves their copies from the block in order. The first carve
// allocates the block, so a copy costs one allocation per type it holds.
// Unlike a Set's, a Block's memory is never recycled: the copies keep it.
type Block[T any] struct {
	n    int
	vals []T
}

// One counts v while sizing (returning nil), and carves a copy of it while
// copying.
func (b *Block[T]) One(copying bool, v T) *T {
	if !copying {
		b.n++
		return nil
	}
	b.carve()
	b.vals = append(b.vals, v)
	return &b.vals[len(b.vals)-1]
}

// List counts src's values while sizing (returning nil), and carves a
// copy of src while copying (nil for an empty src).
func (b *Block[T]) List(copying bool, src []T) []T {
	if !copying {
		b.n += len(src)
		return nil
	}
	if len(src) == 0 {
		return nil
	}
	b.carve()
	at := len(b.vals)
	b.vals = append(b.vals, src...)
	return b.vals[at:len(b.vals):len(b.vals)]
}

// carve allocates the block, sized by the sizing walk, at the first
// carve.
func (b *Block[T]) carve() {
	if b.vals == nil {
		b.vals = make([]T, 0, b.n)
	}
}

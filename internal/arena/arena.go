// Package arena provides typed slab allocators for query-scoped object
// graphs. The per-request hot path (parse → bind → execute) used to pay
// one heap allocation per AST node, per bound subtree and per scratch
// buffer; a Slab hands out the same objects from geometrically-grown
// typed blocks that are retained across Reset, so a warm request
// allocates (almost) nothing. A Set holds one Slab per element type and
// is the one allocator every query-scoped layer draws from: the front
// end's arena and the plan compiled in it, and the executor's scratch.
// A Block is the other half: an exactly sized heap block that a copy
// meant to outlive the query carves its values from.
//
// GC safety: blocks are ordinary []T slices, so the garbage collector
// scans pointers held inside allocated values precisely — unlike a raw
// byte arena, a Slab can safely hold interfaces, strings and pointers.
// The tradeoff is that after Reset stale values linger in the retained
// blocks until overwritten, which can keep their referents alive a
// little longer; slabs are therefore meant for bounded, recycled scopes
// (one query), not long-lived accumulations.
//
// A Slab is NOT safe for concurrent use. The intended discipline —
// enforced by the `retain` eiilint analyzer for the query path — is
// that a slab lives in one goroutine's locals, is passed down the call
// stack, and every value obtained from it dies before Reset is called.
package arena

import "unsafe"

const (
	// minBlockElems is the capacity of a slab's first block. Small, so a
	// one-shot slab that allocates a handful of nodes doesn't commit a
	// page's worth of memory per type.
	minBlockElems = 16
	// maxBlockElems caps geometric block growth.
	maxBlockElems = 1024
)

// Slab allocates values of one type out of reusable typed blocks. The
// zero value is ready to use.
type Slab[T any] struct {
	// full holds exhausted blocks whose values are still live.
	full [][]T
	// free holds empty blocks available for reuse after Reset.
	free [][]T
	// cur is the block currently being filled; len(cur) values are live.
	cur []T
	// used counts values handed out since the last Reset.
	used int64
}

// New copies v into the slab and returns a pointer to the copy. The
// pointer is stable for the life of the slab (blocks never move) and
// must not be retained past Reset.
func (s *Slab[T]) New(v T) *T {
	if len(s.cur) == cap(s.cur) {
		s.grow(1)
	}
	s.cur = append(s.cur, v)
	s.used++
	return &s.cur[len(s.cur)-1]
}

// Make returns a zeroed slice of n values with cap == n (appending to it
// reallocates on the heap rather than clobbering neighbors). Like New,
// the slice must not be retained past Reset.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.cur)-len(s.cur) < n {
		s.grow(n)
	}
	off := len(s.cur)
	s.cur = s.cur[:off+n]
	out := s.cur[off : off+n : off+n]
	clear(out)
	s.used += int64(n)
	return out
}

// Copy clones src into the slab and returns the copy (nil for empty src).
func (s *Slab[T]) Copy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	out := s.Make(len(src))
	copy(out, src)
	return out
}

// Holds reports whether p points into a block holding the slab's values
// since its last Reset: whether p is the slab's, not the heap's.
func (s *Slab[T]) Holds(p *T) bool {
	if within(s.cur, p) {
		return true
	}
	for _, b := range s.full {
		if within(b, p) {
			return true
		}
	}
	return false
}

// within reports whether p points into b's backing array.
func within[T any](b []T, p *T) bool {
	if cap(b) == 0 {
		return false
	}
	b = b[:cap(b)]
	off := uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(&b[0]))
	return off < uintptr(cap(b))*unsafe.Sizeof(b[0])
}

// grow makes room for at least n more values, preferring a retained free
// block over a fresh allocation.
func (s *Slab[T]) grow(n int) {
	if cap(s.cur) > 0 {
		s.full = append(s.full, s.cur)
	}
	// Reuse the largest retained block if it fits (free is
	// size-ordered only by accident; scan for one big enough).
	for i := len(s.free) - 1; i >= 0; i-- {
		if cap(s.free[i]) >= n {
			s.cur = s.free[i][:0]
			s.free[i] = s.free[len(s.free)-1]
			s.free[len(s.free)-1] = nil
			s.free = s.free[:len(s.free)-1]
			return
		}
	}
	size := minBlockElems
	if c := cap(s.cur); c > 0 {
		size = 2 * c
		if size > maxBlockElems {
			size = maxBlockElems
		}
	}
	if size < n {
		size = n
	}
	s.cur = make([]T, 0, size)
}

// Reset recycles every block for reuse. All pointers and slices
// previously handed out become invalid: they still point into retained
// memory, so reads won't fault, but the next allocations will overwrite
// them. Callers must ensure nothing from the previous cycle is live.
func (s *Slab[T]) Reset() {
	if cap(s.cur) > 0 {
		s.free = append(s.free, s.cur[:0])
		s.cur = nil
	}
	for i, b := range s.full {
		s.free = append(s.free, b[:0])
		s.full[i] = nil
	}
	s.full = s.full[:0]
	s.used = 0
}

// Len returns how many values have been handed out since the last Reset.
func (s *Slab[T]) Len() int64 { return s.used }

// Bytes returns the memory footprint of the values handed out since the
// last Reset (element payload only, not block overhead).
func (s *Slab[T]) Bytes() int64 {
	var zero T
	return s.used * int64(unsafe.Sizeof(zero))
}

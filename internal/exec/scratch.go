package exec

import (
	"context"
	"sync"

	"repro/internal/arena"
)

// Scratch is the query-scoped allocator: batch row headers, projected
// datums, key and group tables, and the operator objects of the plan
// itself — every iterator and boundary guard BuildBatch builds, their
// compiled-function slices, a semi-join's reduced fetch and a source
// fragment's runtime. All of it dies when the query finishes, so the engine
// takes a pooled Scratch per query, threads it through Options (and the
// query context, for remote subtrees executed inside source wrappers), and
// recycles it on every exit path. A warm query then builds its operator
// tree and runs its batch pipeline with almost no heap allocation.
//
// New and Make are the two allocators, generic over the element type: the
// scratch keeps one arena.Slab per type it has been asked for, so a package
// that cannot name a field here (a source wrapper's runtime) draws from it
// the same way exec does. The nil Scratch falls back to plain heap
// allocation on both.
//
// Unlike the parser's arena, a Scratch is safe for concurrent use: one
// mutex guards the slabs, and exchange workers, their feeder and prefetch
// goroutines all take it, so it can be contended. Every call takes the
// lock once, so callers draw memory a batch or a block of rows at a time,
// never a row at a time: the join probe carves its rows from blocks of up
// to 1024 datums, and partitioned aggregation draws its window buffers
// once. Building a plan takes it once per operator object.
//
// Nothing backed by a Scratch may outlive its query. The engine block-copies
// its result rows out — to the heap, or a peer fragment's into the scratch
// of the coordinator's query, which outlives it — and renders explain
// output and traces before it releases the scratch; the retain analyzer
// checks that code stores no scratch-backed value into a longer-lived one.
type Scratch struct {
	mu sync.Mutex
	// slabs holds one *arena.Slab[T] per type drawn so far, in first-use
	// order; a pooled scratch keeps them, so a warm query adds none.
	slabs []scratchSlab

	// borrowers counts goroutines that may still allocate from or read
	// scratch memory after the query's drain returns — an abandoned
	// prefetch runs its fetch to completion even when the consumer has
	// moved on. PutScratch waits borrowers out before recycling, so their
	// rows cannot be overwritten by the next query.
	borrowers sync.WaitGroup
}

// scratchSlab is what a Scratch needs of its slabs without knowing their
// element type. Len, which Scratch lacks, keeps the method set apart from
// Scratch's own Reset and Bytes: the lockorder check resolves interface
// calls by method names, and those two take s.mu.
type scratchSlab interface {
	Reset()
	Bytes() int64
	Len() int64
}

// slabOf returns s's slab of T, adding it the first time s is asked for a
// T. The caller holds s.mu.
func slabOf[T any](s *Scratch) *arena.Slab[T] {
	for _, sl := range s.slabs {
		if t, ok := sl.(*arena.Slab[T]); ok {
			return t
		}
	}
	t := new(arena.Slab[T])
	s.slabs = append(s.slabs, t)
	return t
}

// New returns a pointer to a copy of v drawn from s (the heap when s is
// nil): the constructor of every operator object a plan build makes.
func New[T any](s *Scratch, v T) *T {
	if s == nil {
		p := new(T)
		*p = v
		return p
	}
	s.mu.Lock()
	p := slabOf[T](s).New(v)
	s.mu.Unlock()
	return p
}

// Make returns a zeroed slice of length and capacity n drawn from s (the
// heap when s is nil).
func Make[T any](s *Scratch, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	s.mu.Lock()
	out := slabOf[T](s).Make(n)
	s.mu.Unlock()
	return out
}

// Hold registers a borrower goroutine (nil-safe). Must be called before
// the goroutine starts, on the spawning side; pair with Release.
func (s *Scratch) Hold() {
	if s != nil {
		s.borrowers.Add(1)
	}
}

// Release drops a Hold (nil-safe).
func (s *Scratch) Release() {
	if s != nil {
		s.borrowers.Done()
	}
}

// WaitBorrowers blocks until every registered borrower has released
// (nil-safe). The engine's replan loop calls it between execution
// attempts: an abandoned prefetch from the aborted attempt runs its fetch
// to completion, and must not still be recording into the cardinality
// ledger when the next attempt starts. No new borrowers can register once
// the aborted attempt's drain has returned — spawning only happens while
// operators are being pulled — so the wait is race-free.
func (s *Scratch) WaitBorrowers() {
	if s != nil {
		s.borrowers.Wait()
	}
}

// Bytes reports the payload footprint allocated from the scratch since the
// last Reset. The engine folds it into Result.ArenaBytes.
func (s *Scratch) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var b int64
	for _, sl := range s.slabs {
		b += sl.Bytes()
	}
	return b
}

// Reset recycles every block for reuse; previously returned slices become
// invalid.
func (s *Scratch) Reset() {
	s.mu.Lock()
	for _, sl := range s.slabs {
		sl.Reset()
	}
	s.mu.Unlock()
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a warmed scratch from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch waits out any borrower goroutines (abandoned prefetches run
// their fetch to completion), then resets s and returns it to the pool.
// The caller must ensure nothing backed by s is still reachable after that
// point (the engine block-copies its result rows out of s before releasing).
func PutScratch(s *Scratch) {
	s.borrowers.Wait()
	s.Reset()
	scratchPool.Put(s)
}

type scratchCtxKey struct{}

// WithScratch attaches the query's scratch to the context so remote
// subtrees executed inside source wrappers (which build their own exec
// Options) allocate from the same query-scoped pool.
func WithScratch(ctx context.Context, s *Scratch) context.Context {
	return context.WithValue(ctx, scratchCtxKey{}, s)
}

// ScratchFrom returns the scratch attached by WithScratch, or nil.
func ScratchFrom(ctx context.Context) *Scratch {
	s, _ := ctx.Value(scratchCtxKey{}).(*Scratch)
	return s
}

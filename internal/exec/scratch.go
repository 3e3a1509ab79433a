package exec

import (
	"context"
	"sync"

	"repro/internal/arena"
	"repro/internal/datum"
	"repro/internal/plan"
)

// Scratch is the query-scoped allocator: batch row headers, projected
// datums, key and group tables, and the plan's executable form itself —
// every iterator and boundary guard BuildBatch builds, the compiled
// expression trees they evaluate (one block of Expr nodes per tree, and a
// constant IN-list's set, values and index), a semi-join's reduced fetch
// and a source fragment's runtime. All of it dies when the query finishes,
// so the engine takes a pooled Scratch per query, threads it through
// Options (and the query context, for remote subtrees executed inside
// source wrappers, whose fetch filters compile into it too), and recycles
// it on every exit path. A warm query then builds and compiles its
// operator tree and runs its batch pipeline without heap allocation.
//
// New and Make are the two allocators, generic over the element type: the
// scratch's arena.Set keeps one slab per type it has been asked for, so a
// package that cannot name a field here (a source wrapper's runtime) draws
// from it the same way exec does. The nil Scratch falls back to plain heap
// allocation on both.
//
// Unlike the parser's arena, a Scratch is safe for concurrent use: one
// mutex guards the slabs, and exchange workers, their feeder and prefetch
// goroutines all take it, so it can be contended. Every call takes the
// lock once, so callers draw memory a batch or a block of rows at a time,
// never a row at a time: the join probe carves its rows from blocks of up
// to 1024 datums, and partitioned aggregation draws its window buffers
// once. Building a plan takes it once per operator object and once per
// compiled expression tree, never per expression node.
//
// Nothing backed by a Scratch may outlive its query. The engine block-copies
// its result rows out — to the heap, or a peer fragment's into the scratch
// of the coordinator's query, which outlives it — and renders explain
// output and traces before it releases the scratch; the retain analyzer
// checks that code stores no scratch-backed value into a longer-lived one.
type Scratch struct {
	mu    sync.Mutex
	slabs arena.Set

	// params and frags are the values and the prepared-fragment slots of
	// the plan template the query runs (see SetTemplate); nil for none.
	params []datum.Datum
	frags  *Fragments

	// borrowers counts goroutines that may still allocate from or read
	// scratch memory after the query's drain returns — an abandoned
	// prefetch runs its fetch to completion even when the consumer has
	// moved on. PutScratch waits borrowers out before recycling, so their
	// rows cannot be overwritten by the next query.
	borrowers sync.WaitGroup
}

// New returns a pointer to a copy of v drawn from s (the heap when s is
// nil): the constructor of every operator object a plan build makes.
func New[T any](s *Scratch, v T) *T {
	if s == nil {
		return arena.New(nil, v)
	}
	s.mu.Lock()
	p := arena.New(&s.slabs, v)
	s.mu.Unlock()
	return p
}

// Make returns a zeroed slice of length and capacity n drawn from s (the
// heap when s is nil).
func Make[T any](s *Scratch, n int) []T {
	if s == nil {
		return arena.Make[T](nil, n)
	}
	s.mu.Lock()
	out := arena.Make[T](&s.slabs, n)
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
	return s.slabs.Bytes()
}

// Reset recycles every block for reuse and forgets the template;
// previously returned slices become invalid.
func (s *Scratch) Reset() {
	s.mu.Lock()
	s.slabs.Reset()
	s.mu.Unlock()
	s.params, s.frags = nil, nil
}

// SetTemplate makes s the scratch of a query that runs a plan template:
// params are its values ($k is params[k-1]), which every expression
// compiled from s reads where the template holds $k, and frags the cached
// plan's prepared-fragment slots, which the query's sources look their
// fragments up in (nil for none). It is set before the plan is built, and
// so before any goroutine of the query reads it.
func (s *Scratch) SetTemplate(params []datum.Datum, frags *Fragments) {
	s.params, s.frags = params, frags
}

// Params returns the values of the template the query runs, nil for a
// template without parameters (and for the nil Scratch).
func (s *Scratch) Params() []datum.Datum {
	if s == nil {
		return nil
	}
	return s.params
}

// Fragment returns the prepared-fragment slot of the template Remote
// whose child is subtree, nil when the query runs no template or subtree
// is no such child (a semi-join's reduced fetch, a re-planned plan's).
func (s *Scratch) Fragment(subtree plan.Node) *FragmentSlot {
	if s == nil {
		return nil
	}
	return s.frags.slot(subtree)
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

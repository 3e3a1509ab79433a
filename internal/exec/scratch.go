package exec

import (
	"context"
	"sync"

	"repro/internal/arena"
	"repro/internal/datum"
)

// Scratch is the query-scoped allocator for batch row headers and
// projected datums. Everything an execution materializes transiently —
// filter output containers, projection arenas, remote-subtree results —
// dies when the query finishes, so the engine takes a pooled Scratch per
// query, threads it through Options (and the query context, for remote
// subtrees executed inside source wrappers), and recycles it on every exit
// path. A warm query then runs its batch pipeline with almost no heap
// allocation.
//
// Unlike the parser's arena, a Scratch is safe for concurrent use: one
// mutex guards the slabs, and exchange workers, their feeder and prefetch
// goroutines all take it, so it can be contended. Every Make call takes the
// lock once, so callers draw memory a batch or a block of rows at a time,
// never a row at a time: the join probe carves its rows from blocks of up
// to 1024 datums, and partitioned aggregation draws its window buffers
// once. The nil Scratch falls back to plain heap allocation.
//
// Rows backed by a Scratch must not escape the query. The engine enforces
// this at its boundary by block-copying Result.Rows; the retain
// analyzer checks that exec code does not store scratch-backed slices into
// longer-lived structures.
type Scratch struct {
	mu     sync.Mutex
	datums arena.Slab[datum.Datum]
	rows   arena.Slab[datum.Row]
	u64s   arena.Slab[uint64]
	i32s   arena.Slab[int32]
	bools  arena.Slab[bool]
	cells  arena.Slab[aggCell]

	// borrowers counts goroutines that may still allocate from or read
	// scratch memory after the query's drain returns — an abandoned
	// prefetch runs its fetch to completion even when the consumer has
	// moved on. PutScratch waits borrowers out before recycling, so their
	// rows cannot be overwritten by the next query.
	borrowers sync.WaitGroup
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

// MakeDatums returns a zeroed datum slice of length and capacity n from
// the scratch (plain heap when s is nil).
func (s *Scratch) MakeDatums(n int) []datum.Datum {
	if s == nil {
		return make([]datum.Datum, n)
	}
	s.mu.Lock()
	out := s.datums.Make(n)
	s.mu.Unlock()
	return out
}

// MakeRows returns a zeroed row-header slice of length and capacity n from
// the scratch (plain heap when s is nil).
func (s *Scratch) MakeRows(n int) []datum.Row {
	if s == nil {
		return make([]datum.Row, n)
	}
	s.mu.Lock()
	out := s.rows.Make(n)
	s.mu.Unlock()
	return out
}

// MakeUint64s returns a zeroed uint64 slice of length and capacity n from
// the scratch (plain heap when s is nil) — hash buffers for join builds.
func (s *Scratch) MakeUint64s(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	s.mu.Lock()
	out := s.u64s.Make(n)
	s.mu.Unlock()
	return out
}

// MakeInt32s returns a zeroed int32 slice of length and capacity n from the
// scratch (plain heap when s is nil) — keyIndex chains.
func (s *Scratch) MakeInt32s(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	s.mu.Lock()
	out := s.i32s.Make(n)
	s.mu.Unlock()
	return out
}

// MakeBools returns a zeroed bool slice of length and capacity n from the
// scratch (plain heap when s is nil).
func (s *Scratch) MakeBools(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	s.mu.Lock()
	out := s.bools.Make(n)
	s.mu.Unlock()
	return out
}

// MakeAggCells returns a zeroed aggregate-state slice of length and
// capacity n from the scratch (plain heap when s is nil) — group tables.
func (s *Scratch) MakeAggCells(n int) []aggCell {
	if s == nil {
		return make([]aggCell, n)
	}
	s.mu.Lock()
	out := s.cells.Make(n)
	s.mu.Unlock()
	return out
}

// Bytes reports the payload footprint allocated from the scratch since the
// last Reset. The engine folds it into Result.ArenaBytes.
func (s *Scratch) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	b := s.datums.Bytes() + s.rows.Bytes() + s.u64s.Bytes() + s.i32s.Bytes() + s.bools.Bytes() + s.cells.Bytes()
	s.mu.Unlock()
	return b
}

// Reset recycles every block for reuse; previously returned slices become
// invalid.
func (s *Scratch) Reset() {
	s.mu.Lock()
	s.datums.Reset()
	s.rows.Reset()
	s.u64s.Reset()
	s.i32s.Reset()
	s.bools.Reset()
	s.cells.Reset()
	s.mu.Unlock()
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a warmed scratch from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch waits out any borrower goroutines (abandoned prefetches run
// their fetch to completion), then resets s and returns it to the pool.
// The caller must ensure nothing scratch-backed is still reachable after
// that point (the engine block-copies Result.Rows before releasing).
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

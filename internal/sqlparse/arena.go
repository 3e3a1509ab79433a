package sqlparse

import (
	"sync"

	"repro/internal/arena"
	"repro/internal/datum"
)

// Arena is the query arena behind one parse→compile→execute cycle: an
// arena.Set that every AST node and list comes from, the statement's
// values, and the plan compiled from them too (plan.BuildIn, and
// plan.Map, through which the optimizer's passes copy the nodes, lists
// and expressions they change), beside the parser's reused token buffer
// and list stacks. New and Make draw from it, and Reset recycles the lot, so a
// warm query compiles with almost no heap allocation.
//
// An Arena is not safe for concurrent use and everything allocated from
// it dies at Reset; the retain analyzer enforces that arena-backed
// values are never stored past the query (see DESIGN.md §10). A plan
// compiled in the arena reaches the plan cache only as plan.Retain's
// compact heap copy; an AST that must outlive the query itself — a view
// definition — comes from the plain heap-allocating Parse.
type Arena struct {
	slabs arena.Set

	// Scratch: the reused token buffer and the parser's list-building
	// stacks. While a list is open the parser appends to the stack, then
	// copies the finished run into the arena and truncates back to its
	// mark, so nested lists (subqueries, CASE, IN) interleave safely.
	toks     []Token
	itemStk  []SelectItem
	orderStk []OrderItem
	exprStk  []Expr
	refStk   []TableRef
	whenStk  []CaseWhen
	sqlBuf   []byte
	valStk   []datum.Datum

	// The token key's scratch (see tokenkey.go): the last LexKey's key,
	// the last parse's literal origins, the origin of each parameter the
	// last ExtractParamsIn made (-1: unknown), and a mark a token.
	keyBuf  []byte
	origins []litOrigin
	binds   []int32
	marks   []bool
}

// NewArena returns an empty arena. The zero value is also usable.
func NewArena() *Arena { return &Arena{} }

// set returns a's slabs, nil (the heap) when a is nil.
func (a *Arena) set() *arena.Set {
	if a == nil {
		return nil
	}
	return &a.slabs
}

// New returns a pointer to a copy of v drawn from a (the heap when a is
// nil): the constructor of every AST node a parse or a rewrite makes, and
// of every plan node a compile or a binding makes. Like everything from
// a, it dies at a's Reset.
func New[T any](a *Arena, v T) *T { return arena.New(a.set(), v) }

// Make returns a zeroed slice of length and capacity n drawn from a (the
// heap when a is nil).
func Make[T any](a *Arena, n int) []T { return arena.Make[T](a.set(), n) }

// Reset recycles every slab block and scratch buffer for reuse. All AST
// nodes, plan nodes and slices previously produced through the arena
// become invalid.
func (a *Arena) Reset() {
	a.slabs.Reset()
	a.toks = a.toks[:0]
	a.itemStk = a.itemStk[:0]
	a.orderStk = a.orderStk[:0]
	a.exprStk = a.exprStk[:0]
	a.refStk = a.refStk[:0]
	a.whenStk = a.whenStk[:0]
	a.sqlBuf = a.sqlBuf[:0]
	a.valStk = a.valStk[:0]
	a.keyBuf = a.keyBuf[:0]
	clear(a.origins) // they point at nodes that die here
	a.origins = a.origins[:0]
	a.binds = a.binds[:0]
	a.marks = a.marks[:0]
}

// Bytes reports the payload footprint of the AST and plan nodes and lists
// allocated from the arena since the last Reset; the token buffer and the
// parser's stacks are not counted. The engine folds it into
// Result.ArenaBytes.
func (a *Arena) Bytes() int64 { return a.set().Bytes() }

// RenderSQL renders a node through the arena's reused byte buffer, so a
// render costs exactly the final string copy. Falls back to plain
// rendering when a is nil. The engine renders a statement's cache keys
// with CacheKeys instead, and only when the token key misses.
func (a *Arena) RenderSQL(n Node) string {
	if a == nil {
		return nodeSQL(n)
	}
	b := n.appendSQL(a.sqlBuf[:0])
	a.sqlBuf = b[:0]
	return string(b)
}

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena takes a warmed arena from the process-wide pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena resets a and returns it to the pool. The caller must ensure
// nothing allocated from a (AST nodes, bound plans, lists) is still
// reachable; PutArena on every query exit path is the discipline the
// engine follows and the retain analyzer checks.
func PutArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}

package plan

import (
	"repro/internal/arena"
	"repro/internal/sqlparse"
)

// nodeArena holds the plan slabs one query draws from: the nodes, column
// lists, sort keys, aggregate specs and input lists that compiling its
// statement (plan.BuildIn, the optimizer's passes) and binding its
// parameters (BindParamsIn) make. It attaches to the query's
// sqlparse.Arena as its ExtArena, so everything recycles on the same
// Reset that recycles the AST: no second lifecycle to get wrong.
type nodeArena struct {
	// slabs holds one *arena.Slab[T] per type drawn so far, in first-use
	// order; a pooled arena keeps them, so a warm query adds none.
	slabs []nodeSlab
}

// nodeSlab is what a nodeArena needs of its slabs without knowing their
// element type.
type nodeSlab interface {
	Reset()
	Bytes() int64
}

func (n *nodeArena) Reset() {
	for _, s := range n.slabs {
		s.Reset()
	}
}

func (n *nodeArena) Bytes() int64 {
	var b int64
	for _, s := range n.slabs {
		b += s.Bytes()
	}
	return b
}

// nodesOf returns the nodeArena attached to a, attaching a fresh one the
// first time a given pooled arena passes through planning. An arena whose
// extension slot another package claimed gets a fresh one that is never
// reset, so its nodes are as retain-safe as heap ones.
func nodesOf(a *sqlparse.Arena) *nodeArena {
	if na, ok := a.Ext().(*nodeArena); ok {
		return na
	}
	na := &nodeArena{}
	if a.Ext() == nil {
		a.SetExt(na)
	}
	return na
}

// slabOf returns n's slab of T, adding it the first time n is asked for
// a T.
func slabOf[T any](n *nodeArena) *arena.Slab[T] {
	for _, s := range n.slabs {
		if t, ok := s.(*arena.Slab[T]); ok {
			return t
		}
	}
	t := new(arena.Slab[T])
	n.slabs = append(n.slabs, t)
	return t
}

// New returns a pointer to a copy of v drawn from a's plan slabs (the
// heap when a is nil): the constructor of every plan node a compile or a
// binding makes. Like everything from a, it dies at a's Reset.
func New[T any](a *sqlparse.Arena, v T) *T {
	if a == nil {
		p := new(T)
		*p = v
		return p
	}
	return slabOf[T](nodesOf(a)).New(v)
}

// Make returns a zeroed slice of length and capacity n drawn from a's
// plan slabs (the heap when a is nil).
func Make[T any](a *sqlparse.Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	return slabOf[T](nodesOf(a)).Make(n)
}

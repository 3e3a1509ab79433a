package plan

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/datum"
	"repro/internal/sqlparse"
)

// This file implements parameter binding over compiled plans. A plan built
// from a statement with placeholders is a template: it carries
// *sqlparse.Param leaves where constants will go. BindParams instantiates
// the template with one execution's values, producing a plan the executor
// (and the pushdown deparser) sees as fully constant. The template is
// never mutated, so a cached plan can be bound concurrently by any number
// of executions.

// exprHasParam reports whether the expression contains a placeholder.
func exprHasParam(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExprs(e, func(sub sqlparse.Expr) {
		if _, ok := sub.(*sqlparse.Param); ok {
			found = true
		}
	})
	return found
}

// BindParams returns a copy of the plan with every placeholder replaced by
// its value (params[i] binds $i+1). Subtrees without placeholders are
// shared with the input plan, so binding a mostly-constant plan is cheap.
// Binding fails when the plan references a parameter index beyond
// len(params); surplus values are ignored.
func BindParams(n Node, params []datum.Datum) (Node, error) {
	return BindParamsIn(nil, n, params)
}

// BindParamsIn is BindParams with everything it rebuilds allocated from a
// (heap when a is nil): the rewritten expression subtrees from the arena
// itself, the handful of cloned plan nodes from the bindArena slabs
// attached to it. Both die with the query's arena; the returned plan must
// not outlive the arena; the engine reports the retained template, never
// the bound instance, in Result.Plan.
func BindParamsIn(a *sqlparse.Arena, n Node, params []datum.Datum) (Node, error) {
	b := binder{arena: a, params: params, nodes: bindSlabsOf(a)}
	return b.node(n)
}

// bindArena holds the plan-node slabs one query's parameter binding
// clones into. It attaches to the query's sqlparse.Arena as its ExtArena,
// so the clones recycle on the same Reset that recycles the AST — no
// second lifecycle to get wrong.
type bindArena struct {
	filters    arena.Slab[Filter]
	projects   arena.Slab[Project]
	joins      arena.Slab[Join]
	aggregates arena.Slab[Aggregate]
	sorts      arena.Slab[Sort]
	limits     arena.Slab[Limit]
	distincts  arena.Slab[Distinct]
	unions     arena.Slab[Union]
	remotes    arena.Slab[Remote]
}

func (b *bindArena) Reset() {
	b.filters.Reset()
	b.projects.Reset()
	b.joins.Reset()
	b.aggregates.Reset()
	b.sorts.Reset()
	b.limits.Reset()
	b.distincts.Reset()
	b.unions.Reset()
	b.remotes.Reset()
}

func (b *bindArena) Bytes() int64 {
	return b.filters.Bytes() +
		b.projects.Bytes() +
		b.joins.Bytes() +
		b.aggregates.Bytes() +
		b.sorts.Bytes() +
		b.limits.Bytes() +
		b.distincts.Bytes() +
		b.unions.Bytes() +
		b.remotes.Bytes()
}

// bindSlabsOf returns the bindArena attached to a, attaching a fresh one
// the first time a given pooled arena passes through binding. Nil when a
// is nil or another package claimed the extension slot.
func bindSlabsOf(a *sqlparse.Arena) *bindArena {
	if a == nil {
		return nil
	}
	if e := a.Ext(); e != nil {
		ba, ok := e.(*bindArena)
		if !ok {
			return nil
		}
		return ba
	}
	ba := &bindArena{}
	a.SetExt(ba)
	return ba
}

type binder struct {
	arena  *sqlparse.Arena
	params []datum.Datum
	nodes  *bindArena
}

func (b *binder) expr(e sqlparse.Expr) (sqlparse.Expr, error) {
	if e == nil || !exprHasParam(e) {
		return e, nil
	}
	return sqlparse.RewriteIn(b.arena, e, func(x sqlparse.Expr) (sqlparse.Expr, error) {
		p, ok := x.(*sqlparse.Param)
		if !ok {
			return x, nil
		}
		if p.Index < 1 || p.Index > len(b.params) {
			return nil, fmt.Errorf("plan: statement requires parameter $%d but %d values are bound", p.Index, len(b.params))
		}
		return b.arena.NewLiteral(b.params[p.Index-1]), nil
	})
}

// node recurses over the plan by direct field access rather than through
// MapInputs: a bound clone rewrites the node's own expressions along with
// its inputs, keeps derived columns verbatim (MapInputs recomputes Join
// and Aggregate columns), and comes from the query arena.
func (b *binder) node(n Node) (Node, error) {
	switch x := n.(type) {
	case *Filter:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		cond, err := b.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		if in == x.Input && cond == x.Cond {
			return n, nil
		}
		return b.newFilter(Filter{Input: in, Cond: cond, Parallel: x.Parallel}), nil

	case *Project:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		changed := in != x.Input
		exprs := x.Exprs
		exprsCloned := false
		for i, e := range x.Exprs {
			ne, err := b.expr(e)
			if err != nil {
				return nil, err
			}
			if ne != e {
				if !exprsCloned {
					exprs = append([]sqlparse.Expr(nil), x.Exprs...)
					exprsCloned = true
				}
				exprs[i] = ne
				changed = true
			}
		}
		if !changed {
			return n, nil
		}
		return b.newProject(Project{Input: in, Exprs: exprs, Cols: x.Cols, Parallel: x.Parallel}), nil

	case *Join:
		left, err := b.node(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.node(x.Right)
		if err != nil {
			return nil, err
		}
		cond, err := b.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		if left == x.Left && right == x.Right && cond == x.Cond {
			return n, nil
		}
		// Preserve output columns and the semi-join/parallel hints
		// verbatim: binding must not re-derive plan properties.
		return b.newJoin(Join{Type: x.Type, Left: left, Right: right, Cond: cond,
			SemiJoin: x.SemiJoin, Parallel: x.Parallel, cols: x.cols}), nil

	case *Aggregate:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		changed := in != x.Input
		groupBy := x.GroupBy
		groupByCloned := false
		for i, g := range x.GroupBy {
			ng, err := b.expr(g)
			if err != nil {
				return nil, err
			}
			if ng != g {
				if !groupByCloned {
					groupBy = append([]sqlparse.Expr(nil), x.GroupBy...)
					groupByCloned = true
				}
				groupBy[i] = ng
				changed = true
			}
		}
		aggs := x.Aggs
		aggsCloned := false
		for i, sp := range x.Aggs {
			if sp.Arg == nil {
				continue
			}
			na, err := b.expr(sp.Arg)
			if err != nil {
				return nil, err
			}
			if na != sp.Arg {
				if !aggsCloned {
					aggs = append([]AggSpec(nil), x.Aggs...)
					aggsCloned = true
				}
				aggs[i].Arg = na
				changed = true
			}
		}
		if !changed {
			return n, nil
		}
		// Keep the original output column names: downstream column
		// references were resolved against the unbound rendering.
		return b.newAggregate(Aggregate{Input: in, GroupBy: groupBy, Aggs: aggs,
			Parallel: x.Parallel, Groups: x.Groups, cols: x.cols}), nil

	case *Sort:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		changed := in != x.Input
		keys := x.Keys
		keysCloned := false
		for i, k := range x.Keys {
			ne, err := b.expr(k.Expr)
			if err != nil {
				return nil, err
			}
			if ne != k.Expr {
				if !keysCloned {
					keys = append([]SortKey(nil), x.Keys...)
					keysCloned = true
				}
				keys[i].Expr = ne
				changed = true
			}
		}
		if !changed {
			return n, nil
		}
		return b.newSort(Sort{Input: in, Keys: keys}), nil

	case *Limit:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		if in == x.Input {
			return n, nil
		}
		return b.newLimit(Limit{Input: in, Count: x.Count, Offset: x.Offset}), nil

	case *Distinct:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		if in == x.Input {
			return n, nil
		}
		return b.newDistinct(Distinct{Input: in}), nil

	case *Union:
		inputs := x.Inputs
		cloned := false
		for i, in := range x.Inputs {
			ni, err := b.node(in)
			if err != nil {
				return nil, err
			}
			if ni != in {
				if !cloned {
					inputs = append([]Node(nil), x.Inputs...)
					cloned = true
				}
				inputs[i] = ni
			}
		}
		if !cloned {
			return n, nil
		}
		return b.newUnion(Union{Inputs: inputs}), nil

	case *Remote:
		child, err := b.node(x.Child)
		if err != nil {
			return nil, err
		}
		if child == x.Child {
			return n, nil
		}
		return b.newRemote(Remote{Source: x.Source, Child: child, AllowKeyFilter: x.AllowKeyFilter}), nil

	case *Scan:
		// Leaf: no expressions, no children.
		return n, nil

	default:
		panic(fmt.Sprintf("plan: binder missing case for %T", n))
	}
}

// Slab-backed node constructors; a nil bindArena (heap-mode binding)
// falls back to plain allocation.

func (b *binder) newFilter(v Filter) *Filter {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.filters.New(v)
}

func (b *binder) newProject(v Project) *Project {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.projects.New(v)
}

func (b *binder) newJoin(v Join) *Join {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.joins.New(v)
}

func (b *binder) newAggregate(v Aggregate) *Aggregate {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.aggregates.New(v)
}

func (b *binder) newSort(v Sort) *Sort {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.sorts.New(v)
}

func (b *binder) newLimit(v Limit) *Limit {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.limits.New(v)
}

func (b *binder) newDistinct(v Distinct) *Distinct {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.distincts.New(v)
}

func (b *binder) newUnion(v Union) *Union {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.unions.New(v)
}

func (b *binder) newRemote(v Remote) *Remote {
	if b.nodes == nil {
		n := v
		return &n
	}
	return b.nodes.remotes.New(v)
}

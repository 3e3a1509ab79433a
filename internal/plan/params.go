package plan

import (
	"fmt"

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

// BindParams returns a copy of the plan with every placeholder replaced by
// its value (params[i] binds $i+1). Subtrees without placeholders are
// shared with the input plan, so binding a mostly-constant plan is cheap.
// Binding fails when the plan references a parameter index beyond
// len(params); surplus values are ignored.
func BindParams(n Node, params []datum.Datum) (Node, error) {
	return BindParamsIn(nil, n, params)
}

// BindParamsIn is BindParams with everything it rebuilds allocated from a
// (heap when a is nil): the rewritten expression subtrees and the handful
// of cloned plan nodes (sqlparse.New). Both die with the query's arena;
// the returned plan must not outlive the arena; the engine reports the
// retained template, never the bound instance, in Result.Plan.
func BindParamsIn(a *sqlparse.Arena, n Node, params []datum.Datum) (Node, error) {
	b := binder{arena: a, params: params}
	return b.node(n)
}

type binder struct {
	arena  *sqlparse.Arena
	params []datum.Datum
}

// expr binds e's placeholders. RewriteIn is copy-on-change, so an
// expression without placeholders comes back as itself, shared with the
// template.
func (b *binder) expr(e sqlparse.Expr) (sqlparse.Expr, error) {
	return sqlparse.RewriteIn(b.arena, e, func(x sqlparse.Expr) (sqlparse.Expr, error) {
		p, ok := x.(*sqlparse.Param)
		if !ok {
			return x, nil
		}
		if p.Index < 1 || p.Index > len(b.params) {
			return nil, fmt.Errorf("plan: statement requires parameter $%d but %d values are bound", p.Index, len(b.params))
		}
		return sqlparse.New(b.arena, sqlparse.Literal{Value: b.params[p.Index-1]}), nil
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
		return sqlparse.New(b.arena, Filter{Input: in, Cond: cond, Parallel: x.Parallel}), nil

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
		return sqlparse.New(b.arena, Project{Input: in, Exprs: exprs, Cols: x.Cols, Parallel: x.Parallel}), nil

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
		return sqlparse.New(b.arena, Join{Type: x.Type, Left: left, Right: right, Cond: cond,
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
		return sqlparse.New(b.arena, Aggregate{Input: in, GroupBy: groupBy, Aggs: aggs,
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
		return sqlparse.New(b.arena, Sort{Input: in, Keys: keys}), nil

	case *Limit:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		if in == x.Input {
			return n, nil
		}
		return sqlparse.New(b.arena, Limit{Input: in, Count: x.Count, Offset: x.Offset}), nil

	case *Distinct:
		in, err := b.node(x.Input)
		if err != nil {
			return nil, err
		}
		if in == x.Input {
			return n, nil
		}
		return sqlparse.New(b.arena, Distinct{Input: in}), nil

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
		return sqlparse.New(b.arena, Union{Inputs: inputs}), nil

	case *Remote:
		child, err := b.node(x.Child)
		if err != nil {
			return nil, err
		}
		if child == x.Child {
			return n, nil
		}
		return sqlparse.New(b.arena, Remote{Source: x.Source, Child: child, AllowKeyFilter: x.AllowKeyFilter}), nil

	case *Scan:
		// Leaf: no expressions, no children.
		return n, nil

	default:
		panic(fmt.Sprintf("plan: binder missing case for %T", n))
	}
}

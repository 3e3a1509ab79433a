package plan

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/sqlparse"
)

// Retain returns a deep copy on the heap of the plan n compiled in the
// query arena a, for a plan that must outlive the query: the plan cache's
// templates, Result.Plan, Explain. The copy is compact: a sizing walk
// counts what the plan holds, then one exactly sized block per node,
// expression or list type present backs every copy of that type. It
// shares nothing with a: only the expression leaves outside it (a stored
// view's column references, say), strings, datum values and the feedback
// streams Remotes point at, which no arena owns, are shared rather than
// copied; with a nil every leaf is copied too. Derived columns are copied verbatim, never recomputed.
func Retain(a *sqlparse.Arena, n Node) Node {
	r := retainer{Retainer: sqlparse.Retainer{From: a}}
	r.node(n) // sizing
	r.Copying = true
	return r.node(n)
}

// retainer carries Retain's two walks over one plan: sizing counts into
// the blocks and the expression retainer, copying carves from them. Both
// walks run node, so they visit the same values.
type retainer struct {
	sqlparse.Retainer

	scans      arena.Block[Scan]
	filters    arena.Block[Filter]
	projects   arena.Block[Project]
	joins      arena.Block[Join]
	aggregates arena.Block[Aggregate]
	sorts      arena.Block[Sort]
	limits     arena.Block[Limit]
	distincts  arena.Block[Distinct]
	unions     arena.Block[Union]
	remotes    arena.Block[Remote]
	cols       arena.Block[ColMeta]
	keys       arena.Block[SortKey]
	aggs       arena.Block[AggSpec]
	inputs     arena.Block[Node]
}

// node counts n while sizing and returns its copy while copying. Each
// case copies the node's value, then replaces every field that refers to
// memory: inputs, expressions and lists.
func (r *retainer) node(n Node) Node {
	c := r.Copying
	switch x := n.(type) {
	case *Scan:
		v := *x
		v.Cols = r.cols.List(c, x.Cols)
		return r.scans.One(c, v)
	case *Filter:
		v := *x
		v.Input, v.Cond = r.node(x.Input), r.Expr(x.Cond)
		return r.filters.One(c, v)
	case *Project:
		v := *x
		v.Input, v.Exprs, v.Cols = r.node(x.Input), r.List(x.Exprs), r.cols.List(c, x.Cols)
		return r.projects.One(c, v)
	case *Join:
		v := *x
		v.Left, v.Right, v.Cond = r.node(x.Left), r.node(x.Right), r.Expr(x.Cond)
		v.cols = r.cols.List(c, x.cols)
		return r.joins.One(c, v)
	case *Aggregate:
		v := *x
		v.Input, v.GroupBy, v.cols = r.node(x.Input), r.List(x.GroupBy), r.cols.List(c, x.cols)
		v.Aggs = r.aggs.List(c, x.Aggs)
		for i, sp := range x.Aggs {
			if arg := r.Expr(sp.Arg); c {
				v.Aggs[i].Arg = arg
			}
		}
		return r.aggregates.One(c, v)
	case *Sort:
		v := *x
		v.Input, v.Keys = r.node(x.Input), r.keys.List(c, x.Keys)
		for i, k := range x.Keys {
			if e := r.Expr(k.Expr); c {
				v.Keys[i].Expr = e
			}
		}
		return r.sorts.One(c, v)
	case *Limit:
		v := *x
		v.Input = r.node(x.Input)
		return r.limits.One(c, v)
	case *Distinct:
		v := *x
		v.Input = r.node(x.Input)
		return r.distincts.One(c, v)
	case *Union:
		v := *x
		v.Inputs = r.inputs.List(c, x.Inputs)
		for i, in := range x.Inputs {
			if cp := r.node(in); c {
				v.Inputs[i] = cp
			}
		}
		return r.unions.One(c, v)
	case *Remote:
		v := *x
		v.Child = r.node(x.Child)
		return r.remotes.One(c, v)
	default:
		panic(fmt.Sprintf("plan: Retain missing case for %T", n))
	}
}

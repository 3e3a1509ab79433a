package plan

import (
	"fmt"

	"repro/internal/sqlparse"
)

// Retain returns a deep copy on the heap of the plan n compiled in the
// query arena a, for a plan that must outlive the query: the plan cache's
// templates, Result.Plan, Explain. The copy is compact: a sizing walk
// counts what the plan holds, then one exactly sized block per node,
// expression or list type present backs every copy of that type. It
// shares nothing with a: only the expression leaves outside it (a stored
// view's column references, say) and strings and datum values, which no
// arena owns, are shared rather than copied; with a nil every leaf is
// copied too. Derived columns are copied verbatim, as the binder keeps
// them, where MapInputs would recompute them.
func Retain(a *sqlparse.Arena, n Node) Node {
	r := retainer{exprs: sqlparse.Retainer{From: a}}
	r.node(n) // sizing
	r.reserve()
	r.copying = true
	return r.node(n)
}

// retainer carries Retain's two walks over one plan: sizing counts into
// the blocks and the expression retainer, copying carves from them. Both
// walks run node, so they visit the same values.
type retainer struct {
	copying bool
	exprs   sqlparse.Retainer

	scans      block[Scan]
	filters    block[Filter]
	projects   block[Project]
	joins      block[Join]
	aggregates block[Aggregate]
	sorts      block[Sort]
	limits     block[Limit]
	distincts  block[Distinct]
	unions     block[Union]
	remotes    block[Remote]
	cols       block[ColMeta]
	keys       block[SortKey]
	aggs       block[AggSpec]
	inputs     block[Node]
}

// block is one exactly sized heap block of T: n values counted by the
// sizing walk, carved in order by the copying walk.
type block[T any] struct {
	n    int
	vals []T
}

func (b *block[T]) reserve() {
	if b.n > 0 {
		b.vals = make([]T, 0, b.n)
	}
}

// list counts, or carves a copy of, src; nil while sizing and for an
// empty src.
func (b *block[T]) list(copying bool, src []T) []T {
	if !copying {
		b.n += len(src)
		return nil
	}
	if len(src) == 0 {
		return nil
	}
	at := len(b.vals)
	b.vals = append(b.vals, src...)
	return b.vals[at:len(b.vals):len(b.vals)]
}

// one counts, or carves a copy of, v; nil while sizing.
func (b *block[T]) one(copying bool, v T) *T {
	if !copying {
		b.n++
		return nil
	}
	b.vals = append(b.vals, v)
	return &b.vals[len(b.vals)-1]
}

func (r *retainer) reserve() {
	r.exprs.Reserve()
	r.scans.reserve()
	r.filters.reserve()
	r.projects.reserve()
	r.joins.reserve()
	r.aggregates.reserve()
	r.sorts.reserve()
	r.limits.reserve()
	r.distincts.reserve()
	r.unions.reserve()
	r.remotes.reserve()
	r.cols.reserve()
	r.keys.reserve()
	r.aggs.reserve()
	r.inputs.reserve()
}

func (r *retainer) expr(e sqlparse.Expr) sqlparse.Expr {
	if !r.copying {
		r.exprs.Count(e)
		return nil
	}
	return r.exprs.Copy(e)
}

func (r *retainer) exprList(list []sqlparse.Expr) []sqlparse.Expr {
	if !r.copying {
		r.exprs.CountList(list)
		return nil
	}
	return r.exprs.CopyList(list)
}

// node counts n while sizing and returns its copy while copying. Each
// case copies the node's value, then replaces every field that refers to
// memory: inputs, expressions and lists.
func (r *retainer) node(n Node) Node {
	c := r.copying
	switch x := n.(type) {
	case *Scan:
		v := *x
		v.Cols = r.cols.list(c, x.Cols)
		return r.scans.one(c, v)
	case *Filter:
		v := *x
		v.Input, v.Cond = r.node(x.Input), r.expr(x.Cond)
		return r.filters.one(c, v)
	case *Project:
		v := *x
		v.Input, v.Exprs, v.Cols = r.node(x.Input), r.exprList(x.Exprs), r.cols.list(c, x.Cols)
		return r.projects.one(c, v)
	case *Join:
		v := *x
		v.Left, v.Right, v.Cond = r.node(x.Left), r.node(x.Right), r.expr(x.Cond)
		v.cols = r.cols.list(c, x.cols)
		return r.joins.one(c, v)
	case *Aggregate:
		v := *x
		v.Input, v.GroupBy, v.cols = r.node(x.Input), r.exprList(x.GroupBy), r.cols.list(c, x.cols)
		v.Aggs = r.aggs.list(c, x.Aggs)
		for i, sp := range x.Aggs {
			if arg := r.expr(sp.Arg); c {
				v.Aggs[i].Arg = arg
			}
		}
		return r.aggregates.one(c, v)
	case *Sort:
		v := *x
		v.Input, v.Keys = r.node(x.Input), r.keys.list(c, x.Keys)
		for i, k := range x.Keys {
			if e := r.expr(k.Expr); c {
				v.Keys[i].Expr = e
			}
		}
		return r.sorts.one(c, v)
	case *Limit:
		v := *x
		v.Input = r.node(x.Input)
		return r.limits.one(c, v)
	case *Distinct:
		v := *x
		v.Input = r.node(x.Input)
		return r.distincts.one(c, v)
	case *Union:
		v := *x
		v.Inputs = r.inputs.list(c, x.Inputs)
		for i, in := range x.Inputs {
			if cp := r.node(in); c {
				v.Inputs[i] = cp
			}
		}
		return r.unions.one(c, v)
	case *Remote:
		v := *x
		v.Child = r.node(x.Child)
		return r.remotes.one(c, v)
	default:
		panic(fmt.Sprintf("plan: Retain missing case for %T", n))
	}
}

package opt

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// substitute rewrites e, replacing every column reference that resolves
// against cols with the corresponding expression from exprs (cols[i] is
// produced by exprs[i]). References that do not resolve are left intact,
// and e comes back itself when none resolves; rebuilt nodes come from a.
func substitute(a *sqlparse.Arena, e sqlparse.Expr, cols []plan.ColMeta, exprs []sqlparse.Expr) sqlparse.Expr {
	out, _ := sqlparse.RewriteIn(a, e, func(x sqlparse.Expr) (sqlparse.Expr, error) {
		if c, ok := x.(*sqlparse.ColumnRef); ok {
			if i, ok := plan.FindColumn(cols, c); ok {
				return exprs[i], nil
			}
		}
		return x, nil
	})
	return out
}

// mergeProjects collapses Project-over-Project chains by substituting the
// inner expressions into the outer ones. The builder's view unfolding and
// subquery handling produce long rename chains; merging them is what makes
// predicate pushdown reach the scans.
func mergeProjects(a *sqlparse.Arena, n plan.Node) plan.Node {
	return plan.Transform(a, n, func(x plan.Node) plan.Node {
		outer, ok := x.(*plan.Project)
		if !ok {
			return x
		}
		inner, ok := outer.Input.(*plan.Project)
		if !ok {
			return x
		}
		exprs := sqlparse.Make[sqlparse.Expr](a, len(outer.Exprs))
		for i, e := range outer.Exprs {
			exprs[i] = substitute(a, e, inner.Cols, inner.Exprs)
		}
		return sqlparse.New(a, plan.Project{Input: inner.Input, Exprs: exprs, Cols: outer.Cols})
	})
}

// pushFilters moves filter conjuncts as close to the scans as possible. A
// filter already on its floor stays itself.
func pushFilters(a *sqlparse.Arena, n plan.Node) plan.Node {
	return plan.Transform(a, n, func(x plan.Node) plan.Node {
		f, ok := x.(*plan.Filter)
		if !ok || holdsFilters(f.Input) {
			return x
		}
		return pushFilterInto(a, f.Cond, f.Input)
	})
}

// holdsFilters reports whether a filter over n stays there: a scan is the
// floor; Limit/Union change cardinality semantics under a pushed filter;
// Remote subtrees were already placed.
func holdsFilters(n plan.Node) bool {
	switch n.(type) {
	case *plan.Scan, *plan.Limit, *plan.Union, *plan.Remote:
		return true
	}
	return false
}

// pushFilterInto pushes a predicate into node, returning the rewritten
// subtree, copied on change from a. Conjuncts that cannot descend wrap the
// result in a Filter.
func pushFilterInto(a *sqlparse.Arena, cond sqlparse.Expr, node plan.Node) plan.Node {
	if cond == nil {
		return node
	}
	switch x := node.(type) {
	case *plan.Project:
		rewritten := substitute(a, cond, x.Cols, x.Exprs)
		return sqlparse.New(a, plan.Project{Input: pushFilterInto(a, rewritten, x.Input), Exprs: x.Exprs, Cols: x.Cols})

	case *plan.Filter:
		return pushFilterInto(a, sqlparse.New(a, sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: cond, Right: x.Cond}), x.Input)

	case *plan.Join:
		// The conjuncts are sorted into stack buffers: only the
		// combined predicates outlive the split.
		var buf, leftBuf, rightBuf, hereBuf [8]sqlparse.Expr
		leftCols := x.Left.Columns()
		rightCols := x.Right.Columns()
		toLeft, toRight, here := leftBuf[:0], rightBuf[:0], hereBuf[:0]
		for _, c := range sqlparse.AppendConjuncts(buf[:0], cond) {
			switch {
			case plan.RefsResolve(c, leftCols):
				toLeft = append(toLeft, c)
			case plan.RefsResolve(c, rightCols) && x.Type == sqlparse.JoinInner:
				// Pushing a right-side predicate through a LEFT
				// join would drop null-padded rows, so only
				// inner joins descend on the right.
				toRight = append(toRight, c)
			case x.Type == sqlparse.JoinInner:
				// Multi-side predicates join the ON condition.
				here = append(here, c)
			default:
				// Left join: keep above.
				return sqlparse.New(a, plan.Filter{Input: node, Cond: cond})
			}
		}
		left := x.Left
		if len(toLeft) > 0 {
			left = pushFilterInto(a, sqlparse.CombineConjunctsIn(a, toLeft), left)
		}
		right := x.Right
		if len(toRight) > 0 {
			right = pushFilterInto(a, sqlparse.CombineConjunctsIn(a, toRight), right)
		}
		j := x.WithInputs(a, left, right)
		if len(here) > 0 {
			if x.Cond != nil {
				here = append(here, x.Cond)
			}
			j.Cond = sqlparse.CombineConjunctsIn(a, here)
		}
		return j

	case *plan.Aggregate:
		// Conjuncts referencing only group-by outputs move below by
		// substituting the grouping expressions.
		groupCols := x.Columns()[:len(x.GroupBy)]
		var buf, belowBuf, aboveBuf [8]sqlparse.Expr
		below, above := belowBuf[:0], aboveBuf[:0]
		for _, c := range sqlparse.AppendConjuncts(buf[:0], cond) {
			if plan.RefsResolve(c, groupCols) {
				below = append(below, substitute(a, c, groupCols, x.GroupBy))
			} else {
				above = append(above, c)
			}
		}
		out := plan.Node(x)
		if len(below) > 0 {
			out = plan.MapInputs(a, x, func(in plan.Node) plan.Node {
				return pushFilterInto(a, sqlparse.CombineConjunctsIn(a, below), in)
			})
		}
		if len(above) > 0 {
			out = sqlparse.New(a, plan.Filter{Input: out, Cond: sqlparse.CombineConjunctsIn(a, above)})
		}
		return out

	case *plan.Sort:
		return sqlparse.New(a, plan.Sort{Input: pushFilterInto(a, cond, x.Input), Keys: x.Keys})

	case *plan.Distinct:
		return sqlparse.New(a, plan.Distinct{Input: pushFilterInto(a, cond, x.Input)})

	case *plan.Scan, *plan.Limit, *plan.Union, *plan.Remote:
		// A scan is the floor; Limit/Union change cardinality semantics
		// under a pushed filter; Remote subtrees were already placed.
		// The filter stays here.
		return sqlparse.New(a, plan.Filter{Input: node, Cond: cond})

	default:
		panic(fmt.Sprintf("opt: pushFilterInto missing case for %T", node))
	}
}

// markRefs sets marks[i] for the position i, within cols, of every column
// reference in the expressions (nil ones included, as none).
func markRefs(marks []bool, cols []plan.ColMeta, exprs ...sqlparse.Expr) {
	for _, e := range exprs {
		sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
			if r, ok := x.(*sqlparse.ColumnRef); ok {
				if i, ok := plan.FindColumn(cols, r); ok {
					marks[i] = true
				}
			}
		})
	}
}

// pruneColumns trims unused columns so only needed attributes cross the
// network. Each scan is narrowed once, at the root of its fragment: a
// projection directly over the scan, or, when a filter sits on the scan,
// over that filter — so a column only the predicate reads stops at the
// source, and the source evaluates the predicate on its own rows and
// copies only the survivors. Like every pass it copies on change, from a:
// a node that loses no column, over inputs that lose none, comes back
// itself.
func pruneColumns(a *sqlparse.Arena, root plan.Node) plan.Node {
	var buf [128]bool // the marks of a plan of a dozen or so nodes
	p := pruner{arena: a, marks: buf[:0]}
	return p.prune(root, p.all(len(root.Columns())))
}

// pruner carves prune's per-node column marks from shared blocks, the
// first on pruneColumns' stack, and the nodes it changes from arena.
type pruner struct {
	arena *sqlparse.Arena
	marks []bool
}

// take returns n cleared marks.
func (p *pruner) take(n int) []bool {
	if len(p.marks)+n > cap(p.marks) {
		// A fresh block; marks taken from the last one stay valid.
		p.marks = make([]bool, 0, max(64, 2*n, 2*cap(p.marks)))
	}
	m := p.marks[len(p.marks) : len(p.marks)+n : len(p.marks)+n]
	p.marks = p.marks[:len(p.marks)+n]
	return m
}

// all returns n marks, every one set.
func (p *pruner) all(n int) []bool {
	m := p.take(n)
	for i := range m {
		m[i] = true
	}
	return m
}

// with returns marks copied from needed.
func (p *pruner) with(needed []bool) []bool {
	m := p.take(len(needed))
	copy(m, needed)
	return m
}

// marked counts the set marks.
func marked(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}

// prune returns a subtree that produces at least the columns marked needed
// (positions index n's current output). The result may carry extra columns;
// every consumer above resolves by name, except Union which therefore never
// prunes across its boundary.
func (p *pruner) prune(n plan.Node, needed []bool) plan.Node {
	switch x := n.(type) {
	case *plan.Project:
		kept := marked(needed)
		exprs, cols := x.Exprs, x.Cols
		switch {
		case kept == 0:
			// Keep at least one column so the row count survives.
			exprs, cols = exprs[:1:1], cols[:1:1]
		case kept < len(exprs):
			exprs, cols = sqlparse.Make[sqlparse.Expr](p.arena, kept)[:0], sqlparse.Make[plan.ColMeta](p.arena, kept)[:0]
			for i, need := range needed {
				if need {
					exprs, cols = append(exprs, x.Exprs[i]), append(cols, x.Cols[i])
				}
			}
		}
		childCols := x.Input.Columns()
		childNeeded := p.take(len(childCols))
		markRefs(childNeeded, childCols, exprs...)
		in := p.prune(x.Input, childNeeded)
		if in == x.Input && len(exprs) == len(x.Exprs) {
			return x
		}
		c := sqlparse.New(p.arena, *x)
		c.Input, c.Exprs, c.Cols = in, exprs, cols
		return c

	case *plan.Filter:
		if _, ok := x.Input.(*plan.Scan); ok {
			// The filter reads its columns off the scan's rows; only
			// the columns needed above it survive the narrowing.
			return narrow(p.arena, x, needed)
		}
		childNeeded := p.with(needed)
		markRefs(childNeeded, x.Input.Columns(), x.Cond)
		return plan.MapInputs(p.arena, x, func(in plan.Node) plan.Node { return p.prune(in, childNeeded) })

	case *plan.Join:
		want := p.with(needed)
		markRefs(want, x.Columns(), x.Cond)
		nl := len(x.Left.Columns())
		left, right := p.prune(x.Left, want[:nl]), p.prune(x.Right, want[nl:])
		if left == x.Left && right == x.Right {
			return x
		}
		return x.WithInputs(p.arena, left, right)

	case *plan.Aggregate:
		childCols := x.Input.Columns()
		childNeeded := p.take(len(childCols))
		markRefs(childNeeded, childCols, x.GroupBy...)
		for _, sp := range x.Aggs {
			markRefs(childNeeded, childCols, sp.Arg)
		}
		return plan.MapInputs(p.arena, x, func(in plan.Node) plan.Node { return p.prune(in, childNeeded) })

	case *plan.Sort:
		childNeeded := p.with(needed)
		for _, k := range x.Keys {
			markRefs(childNeeded, x.Input.Columns(), k.Expr)
		}
		return plan.MapInputs(p.arena, x, func(in plan.Node) plan.Node { return p.prune(in, childNeeded) })

	case *plan.Limit:
		return plan.MapInputs(p.arena, x, func(in plan.Node) plan.Node { return p.prune(in, needed) })

	case *plan.Distinct, *plan.Union:
		// Dropping columns under DISTINCT changes its semantics, so
		// it keeps everything. Union children are combined
		// positionally, and pruning only guarantees a by-name
		// superset, so no pruning crosses a union boundary — but
		// pruning still runs inside each branch with all columns
		// required.
		return plan.MapInputs(p.arena, x, func(in plan.Node) plan.Node { return p.prune(in, p.all(len(in.Columns()))) })

	case *plan.Scan:
		return narrow(p.arena, x, needed)

	case *plan.Remote:
		// Remote subtrees were placed by an earlier (or idempotent
		// re-) optimization pass; their interior is wrapper-owned and
		// pruning stops at the boundary.
		return x

	default:
		panic(fmt.Sprintf("opt: prune missing case for %T", n))
	}
}

// narrow projects a scan, or a filter over one, down to the needed columns
// (positions index n's output, which is the scan's). It returns n itself
// when no column is dead. The projection comes from a, its lists sized
// once and its references carved from one block.
func narrow(a *sqlparse.Arena, n plan.Node, needed []bool) plan.Node {
	cols := n.Columns()
	kept := marked(needed)
	if kept == len(cols) {
		return n
	}
	// With no column needed, the first is kept for cardinality.
	size := max(kept, 1)
	proj := sqlparse.New(a, plan.Project{Input: n, Exprs: sqlparse.Make[sqlparse.Expr](a, size)[:0], Cols: sqlparse.Make[plan.ColMeta](a, size)[:0]})
	refs := sqlparse.Make[sqlparse.ColumnRef](a, size)[:0]
	for i, c := range cols {
		if needed[i] || kept == 0 && i == 0 {
			refs = append(refs, sqlparse.ColumnRef{Table: c.Table, Column: c.Name})
			proj.Exprs = append(proj.Exprs, &refs[len(refs)-1])
			proj.Cols = append(proj.Cols, c)
		}
	}
	return proj
}

package opt

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// substitute rewrites e, replacing every column reference that resolves
// against cols with the corresponding expression from exprs (cols[i] is
// produced by exprs[i]). References that do not resolve are left intact.
func substitute(e sqlparse.Expr, cols []plan.ColMeta, exprs []sqlparse.Expr) sqlparse.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		if i, ok := plan.FindColumn(cols, x); ok {
			return exprs[i]
		}
		return x
	case *sqlparse.Literal:
		return x
	case *sqlparse.BinaryExpr:
		return &sqlparse.BinaryExpr{Op: x.Op,
			Left:  substitute(x.Left, cols, exprs),
			Right: substitute(x.Right, cols, exprs)}
	case *sqlparse.UnaryExpr:
		return &sqlparse.UnaryExpr{Op: x.Op, Child: substitute(x.Child, cols, exprs)}
	case *sqlparse.IsNullExpr:
		return &sqlparse.IsNullExpr{Child: substitute(x.Child, cols, exprs), Not: x.Not}
	case *sqlparse.InExpr:
		list := make([]sqlparse.Expr, len(x.List))
		for i, a := range x.List {
			list[i] = substitute(a, cols, exprs)
		}
		return &sqlparse.InExpr{Child: substitute(x.Child, cols, exprs), List: list, Not: x.Not}
	case *sqlparse.BetweenExpr:
		return &sqlparse.BetweenExpr{
			Child: substitute(x.Child, cols, exprs),
			Lo:    substitute(x.Lo, cols, exprs),
			Hi:    substitute(x.Hi, cols, exprs),
			Not:   x.Not}
	case *sqlparse.FuncExpr:
		args := make([]sqlparse.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substitute(a, cols, exprs)
		}
		return &sqlparse.FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args}
	case *sqlparse.CaseExpr:
		whens := make([]sqlparse.CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = sqlparse.CaseWhen{
				Cond:   substitute(w.Cond, cols, exprs),
				Result: substitute(w.Result, cols, exprs)}
		}
		return &sqlparse.CaseExpr{Whens: whens, Else: substitute(x.Else, cols, exprs)}
	case *sqlparse.CastExpr:
		return &sqlparse.CastExpr{Child: substitute(x.Child, cols, exprs), Type: x.Type}
	case *sqlparse.KeyFilterExpr:
		return &sqlparse.KeyFilterExpr{Child: substitute(x.Child, cols, exprs), Set: x.Set}
	case *sqlparse.Param:
		return x
	case *sqlparse.ExistsExpr, *sqlparse.InSubquery:
		// Subquery expressions are pre-evaluated away by the engine's
		// rewriteExists before any view expansion or predicate pushdown
		// runs; if one does appear, substitution into a subquery scope
		// is not supported and the expression is left intact.
		return e
	default:
		panic(fmt.Sprintf("opt: substitute missing case for %T", e))
	}
}

// mergeProjects collapses Project-over-Project chains by substituting the
// inner expressions into the outer ones. The builder's view unfolding and
// subquery handling produce long rename chains; merging them is what makes
// predicate pushdown reach the scans.
func mergeProjects(n plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		outer, ok := x.(*plan.Project)
		if !ok {
			return x
		}
		inner, ok := outer.Input.(*plan.Project)
		if !ok {
			return x
		}
		exprs := make([]sqlparse.Expr, len(outer.Exprs))
		for i, e := range outer.Exprs {
			exprs[i] = substitute(e, inner.Cols, inner.Exprs)
		}
		return &plan.Project{Input: inner.Input, Exprs: exprs, Cols: outer.Cols}
	})
}

// pushFilters moves filter conjuncts as close to the scans as possible.
func pushFilters(n plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		f, ok := x.(*plan.Filter)
		if !ok {
			return x
		}
		return pushFilterInto(f.Cond, f.Input)
	})
}

// pushFilterInto pushes a predicate into node, returning the rewritten
// subtree. Conjuncts that cannot descend wrap the result in a Filter.
func pushFilterInto(cond sqlparse.Expr, node plan.Node) plan.Node {
	if cond == nil {
		return node
	}
	switch x := node.(type) {
	case *plan.Project:
		rewritten := substitute(cond, x.Cols, x.Exprs)
		return &plan.Project{Input: pushFilterInto(rewritten, x.Input), Exprs: x.Exprs, Cols: x.Cols}

	case *plan.Filter:
		merged := &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: cond, Right: x.Cond}
		return pushFilterInto(merged, x.Input)

	case *plan.Join:
		conjuncts := sqlparse.SplitConjuncts(cond)
		leftCols := x.Left.Columns()
		rightCols := x.Right.Columns()
		var toLeft, toRight, here []sqlparse.Expr
		for _, c := range conjuncts {
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
				return &plan.Filter{Input: node, Cond: cond}
			}
		}
		left := x.Left
		if len(toLeft) > 0 {
			left = pushFilterInto(sqlparse.CombineConjuncts(toLeft), left)
		}
		right := x.Right
		if len(toRight) > 0 {
			right = pushFilterInto(sqlparse.CombineConjuncts(toRight), right)
		}
		joinCond := x.Cond
		if len(here) > 0 {
			all := append([]sqlparse.Expr{}, here...)
			if joinCond != nil {
				all = append(all, joinCond)
			}
			joinCond = sqlparse.CombineConjuncts(all)
		}
		return plan.NewJoin(x.Type, left, right, joinCond)

	case *plan.Aggregate:
		// Conjuncts referencing only group-by outputs move below by
		// substituting the grouping expressions.
		groupCols := x.Columns()[:len(x.GroupBy)]
		var below, above []sqlparse.Expr
		for _, c := range sqlparse.SplitConjuncts(cond) {
			if plan.RefsResolve(c, groupCols) {
				below = append(below, substitute(c, groupCols, x.GroupBy))
			} else {
				above = append(above, c)
			}
		}
		out := plan.Node(x)
		if len(below) > 0 {
			out = plan.NewAggregate(pushFilterInto(sqlparse.CombineConjuncts(below), x.Input), x.GroupBy, x.Aggs)
		}
		if len(above) > 0 {
			out = &plan.Filter{Input: out, Cond: sqlparse.CombineConjuncts(above)}
		}
		return out

	case *plan.Sort:
		return &plan.Sort{Input: pushFilterInto(cond, x.Input), Keys: x.Keys}

	case *plan.Distinct:
		return &plan.Distinct{Input: pushFilterInto(cond, x.Input)}

	case *plan.Scan, *plan.Limit, *plan.Union, *plan.Remote:
		// A scan is the floor; Limit/Union change cardinality semantics
		// under a pushed filter; Remote subtrees were already placed.
		// The filter stays here.
		return &plan.Filter{Input: node, Cond: cond}

	default:
		panic(fmt.Sprintf("opt: pushFilterInto missing case for %T", node))
	}
}

// exprRefs returns the positions (within cols) of every column reference in
// the expressions.
func exprRefs(cols []plan.ColMeta, exprs ...sqlparse.Expr) map[int]bool {
	out := map[int]bool{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
			if r, ok := x.(*sqlparse.ColumnRef); ok {
				if i, ok := plan.FindColumn(cols, r); ok {
					out[i] = true
				}
			}
		})
	}
	return out
}

// pruneColumns trims unused columns, inserting narrow projections above
// scans so only needed attributes cross the network.
func pruneColumns(root plan.Node) plan.Node {
	all := make([]bool, len(root.Columns()))
	for i := range all {
		all[i] = true
	}
	return prune(root, all)
}

// prune returns a subtree that produces at least the columns marked needed
// (positions index n's current output). The result may carry extra columns;
// every consumer above resolves by name, except Union which therefore never
// prunes across its boundary.
func prune(n plan.Node, needed []bool) plan.Node {
	switch x := n.(type) {
	case *plan.Project:
		var exprs []sqlparse.Expr
		var cols []plan.ColMeta
		for i := range x.Exprs {
			if needed[i] {
				exprs = append(exprs, x.Exprs[i])
				cols = append(cols, x.Cols[i])
			}
		}
		if len(exprs) == 0 {
			// Keep at least one column so the row count survives.
			exprs = append(exprs, x.Exprs[0])
			cols = append(cols, x.Cols[0])
		}
		childCols := x.Input.Columns()
		childNeeded := make([]bool, len(childCols))
		for i := range exprRefs(childCols, exprs...) {
			childNeeded[i] = true
		}
		return &plan.Project{Input: prune(x.Input, childNeeded), Exprs: exprs, Cols: cols}

	case *plan.Filter:
		childCols := x.Input.Columns()
		childNeeded := append([]bool{}, needed...)
		for i := range exprRefs(childCols, x.Cond) {
			childNeeded[i] = true
		}
		return &plan.Filter{Input: prune(x.Input, childNeeded), Cond: x.Cond}

	case *plan.Join:
		joined := x.Columns()
		want := append([]bool{}, needed...)
		for i := range exprRefs(joined, x.Cond) {
			want[i] = true
		}
		nl := len(x.Left.Columns())
		left := prune(x.Left, want[:nl])
		right := prune(x.Right, want[nl:])
		return plan.NewJoin(x.Type, left, right, x.Cond)

	case *plan.Aggregate:
		childCols := x.Input.Columns()
		childNeeded := make([]bool, len(childCols))
		exprs := append([]sqlparse.Expr{}, x.GroupBy...)
		for _, sp := range x.Aggs {
			if sp.Arg != nil {
				exprs = append(exprs, sp.Arg)
			}
		}
		for i := range exprRefs(childCols, exprs...) {
			childNeeded[i] = true
		}
		return plan.NewAggregate(prune(x.Input, childNeeded), x.GroupBy, x.Aggs)

	case *plan.Sort:
		childNeeded := append([]bool{}, needed...)
		for i := range exprRefs(x.Input.Columns(), sortExprs(x.Keys)...) {
			childNeeded[i] = true
		}
		return &plan.Sort{Input: prune(x.Input, childNeeded), Keys: x.Keys}

	case *plan.Limit:
		return &plan.Limit{Input: prune(x.Input, needed), Count: x.Count, Offset: x.Offset}

	case *plan.Distinct:
		// Dropping columns under DISTINCT changes its semantics; keep
		// everything.
		child := x.Input
		all := make([]bool, len(child.Columns()))
		for i := range all {
			all[i] = true
		}
		return &plan.Distinct{Input: prune(child, all)}

	case *plan.Union:
		// Union children are combined positionally, and pruning only
		// guarantees a by-name superset, so no pruning crosses a
		// union boundary — but pruning still runs inside each branch
		// with all columns required.
		inputs := make([]plan.Node, len(x.Inputs))
		for i, in := range x.Inputs {
			all := make([]bool, len(in.Columns()))
			for j := range all {
				all[j] = true
			}
			inputs[i] = prune(in, all)
		}
		return &plan.Union{Inputs: inputs}

	case *plan.Scan:
		// Narrow the scan with a projection if some columns are dead.
		anyDead := false
		for _, keep := range needed {
			if !keep {
				anyDead = true
				break
			}
		}
		if !anyDead {
			return x
		}
		proj := &plan.Project{Input: x}
		for i, c := range x.Cols {
			if !needed[i] {
				continue
			}
			proj.Exprs = append(proj.Exprs, &sqlparse.ColumnRef{Table: c.Table, Column: c.Name})
			proj.Cols = append(proj.Cols, c)
		}
		if len(proj.Exprs) == 0 {
			// Keep one column for cardinality.
			c := x.Cols[0]
			proj.Exprs = append(proj.Exprs, &sqlparse.ColumnRef{Table: c.Table, Column: c.Name})
			proj.Cols = append(proj.Cols, c)
		}
		return proj

	case *plan.Remote:
		// Remote subtrees were placed by an earlier (or idempotent
		// re-) optimization pass; their interior is wrapper-owned and
		// pruning stops at the boundary.
		return x

	default:
		panic(fmt.Sprintf("opt: prune missing case for %T", n))
	}
}

func sortExprs(keys []plan.SortKey) []sqlparse.Expr {
	out := make([]sqlparse.Expr, len(keys))
	for i, k := range keys {
		out[i] = k.Expr
	}
	return out
}

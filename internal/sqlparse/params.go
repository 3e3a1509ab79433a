package sqlparse

import "repro/internal/datum"

// WalkSelectExprs calls fn for every expression reachable from the
// statement: the select list, join conditions, WHERE, HAVING,
// LIMIT/OFFSET, GROUP BY, ORDER BY, derived-table subqueries, IN and
// EXISTS subqueries, and UNION ALL branches. Each expression tree is
// traversed pre-order via WalkExprs, and a subquery's statement right
// after the expression that holds it.
func WalkSelectExprs(s *Select, fn func(Expr)) {
	if s == nil {
		return
	}
	visit := func(e Expr) {
		fn(e)
		WalkSelectExprs(SubqueryOf(e), fn)
	}
	for _, it := range s.Items {
		WalkExprs(it.Expr, visit)
	}
	var walkRef func(TableRef)
	walkRef = func(tr TableRef) {
		switch t := tr.(type) {
		case *Join:
			walkRef(t.Left)
			walkRef(t.Right)
			WalkExprs(t.On, visit)
		case *SubqueryTable:
			WalkSelectExprs(t.Query, fn)
		}
	}
	for _, tr := range s.From {
		walkRef(tr)
	}
	for _, e := range [...]Expr{s.Where, s.Having, s.Limit, s.Offset} {
		WalkExprs(e, visit)
	}
	for _, g := range s.GroupBy {
		WalkExprs(g, visit)
	}
	for _, o := range s.OrderBy {
		WalkExprs(o.Expr, visit)
	}
	WalkSelectExprs(s.UnionAll, fn)
}

// MaxParamIndex returns the highest placeholder index appearing anywhere
// in the statement (0 when the statement has no placeholders). Executing
// the statement requires exactly that many bound values.
func MaxParamIndex(s *Select) int {
	max := 0
	WalkSelectExprs(s, func(e Expr) {
		if p, ok := e.(*Param); ok && p.Index > max {
			max = p.Index
		}
	})
	return max
}

// ExtractParamsIn normalizes a statement for plan-cache keying: constant
// literals inside WHERE and JOIN ON predicates (the positions where
// templated queries vary their constants), those of derived tables, UNION
// ALL branches and IN and EXISTS subqueries included, are replaced with
// numbered placeholders allocated from a (heap when a is nil), and their
// values returned in placeholder order. The statement is rewritten in
// place; rendering it afterwards with SQL() or Arena.CacheKeys yields the
// cache key text, and
// binding the returned values back into the compiled plan reproduces the
// original query exactly. When sel came from a too, the statement and its
// normalized form share one lifetime.
//
// Literals elsewhere (select list, GROUP BY, HAVING, ORDER BY, LIMIT) stay
// inline: the planner folds them into plan structure (LIMIT counts,
// aggregate output naming), so two queries differing there need different
// plans anyway.
//
// cacheable is false — and the statement is left untouched — when the
// statement already carries explicit placeholders: the caller binds those
// itself.
//
// When sel is a's last parse, a also records which token each parameter
// came from: the literal map that CacheKeys renders, and BindLiterals
// reads back from the tokens of a later statement with the same token
// key, without parsing it.
func ExtractParamsIn(a *Arena, sel *Select) (values []datum.Datum, cacheable bool) {
	if MaxParamIndex(sel) > 0 {
		return nil, false
	}
	last := 0 // the origin found last: the next is usually just after it
	if a != nil {
		// Accumulate into the arena's value scratch; the returned slice
		// shares the query's lifetime, like everything else from a.
		values = a.valStk[:0]
		defer func() { a.valStk = values[:0] }()
		a.binds = a.binds[:0]
	}
	var normalize func(*Select)
	extract := func(e Expr) (Expr, error) {
		if lit, ok := e.(*Literal); ok {
			values = append(values, lit.Value)
			if a != nil {
				i := a.originOf(lit, last+1)
				a.binds = append(a.binds, int32(i))
				last = max(i, 0)
			}
			return New(a, Param{Index: len(values)}), nil
		}
		normalize(SubqueryOf(e))
		return e, nil
	}
	normalize = func(s *Select) {
		if s == nil {
			return
		}
		var walkRef func(TableRef)
		walkRef = func(tr TableRef) {
			switch t := tr.(type) {
			case *Join:
				walkRef(t.Left)
				walkRef(t.Right)
				t.On, _ = RewriteIn(a, t.On, extract)
			case *SubqueryTable:
				normalize(t.Query)
			}
		}
		for _, tr := range s.From {
			walkRef(tr)
		}
		s.Where, _ = RewriteIn(a, s.Where, extract)
		normalize(s.UnionAll)
	}
	normalize(sel)
	return values, true
}

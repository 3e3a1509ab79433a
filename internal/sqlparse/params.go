package sqlparse

import "repro/internal/datum"

// WalkSelectExprs calls fn for every expression reachable from the
// statement: the select list, join conditions, WHERE, GROUP BY, HAVING,
// ORDER BY, LIMIT/OFFSET, derived-table subqueries, and UNION ALL
// branches. Each expression tree is traversed pre-order via WalkExprs.
func WalkSelectExprs(s *Select, fn func(Expr)) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		WalkExprs(it.Expr, fn)
	}
	var walkRef func(TableRef)
	walkRef = func(tr TableRef) {
		switch t := tr.(type) {
		case *Join:
			walkRef(t.Left)
			walkRef(t.Right)
			WalkExprs(t.On, fn)
		case *SubqueryTable:
			WalkSelectExprs(t.Query, fn)
		}
	}
	for _, tr := range s.From {
		walkRef(tr)
	}
	WalkExprs(s.Where, fn)
	for _, g := range s.GroupBy {
		WalkExprs(g, fn)
	}
	WalkExprs(s.Having, fn)
	for _, o := range s.OrderBy {
		WalkExprs(o.Expr, fn)
	}
	WalkExprs(s.Limit, fn)
	WalkExprs(s.Offset, fn)
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

// ExtractParams normalizes a statement for plan-cache keying: constant
// literals inside WHERE and JOIN ON predicates (the positions where
// templated queries vary their constants) are replaced with numbered
// placeholders and their values returned in placeholder order. The
// statement is rewritten in place; rendering it afterwards with SQL()
// yields the cache key text, and binding the returned values back into the
// compiled plan reproduces the original query exactly.
//
// Literals elsewhere (select list, GROUP BY, HAVING, ORDER BY, LIMIT) stay
// inline: the planner folds them into plan structure (LIMIT counts,
// aggregate output naming), so two queries differing there need different
// plans anyway.
//
// cacheable is false — and the statement is left untouched — when the
// statement cannot safely share a cached plan: it already carries explicit
// placeholders (the caller binds those itself), or it contains EXISTS / IN
// (SELECT ...) subqueries, which the mediator pre-evaluates against live
// source data at compile time, so their compiled form must not outlive the
// compiling query.
func ExtractParams(sel *Select) (values []datum.Datum, cacheable bool) {
	return ExtractParamsIn(nil, sel)
}

// ExtractParamsIn is ExtractParams with the replacement Param nodes and
// rewritten predicate subtrees allocated from a (heap when a is nil). It
// is safe to use when sel itself came from the same arena: the statement
// and its normalized form then share one lifetime.
func ExtractParamsIn(a *Arena, sel *Select) (values []datum.Datum, cacheable bool) {
	if a != nil {
		// Accumulate into the arena's value scratch; the returned slice
		// shares the query's lifetime, like everything else from a.
		values = a.valStk[:0]
		defer func() { a.valStk = values[:0] }()
	}
	unsafe := false
	WalkSelectExprs(sel, func(e Expr) {
		switch e.(type) {
		case *Param, *ExistsExpr, *InSubquery:
			unsafe = true
		}
	})
	if unsafe {
		return nil, false
	}
	extract := func(e Expr) (Expr, error) {
		if lit, ok := e.(*Literal); ok {
			values = append(values, lit.Value)
			return New(a, Param{Index: len(values)}), nil
		}
		return e, nil
	}
	var normalize func(*Select)
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

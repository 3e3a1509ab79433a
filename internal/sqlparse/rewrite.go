package sqlparse

import (
	"fmt"

	"repro/internal/arena"
)

// MapChildren returns e with every child expression replaced by fn(child),
// in rendering order (an IN-list's child, then its items; CASE's condition
// and result pairs, then its ELSE). It is the expression tree's one
// traversal protocol: every walker and rewriter descends through it, and it
// is the one place that knows which fields hold an expression's children.
// Nil children are leaves and are skipped, and the first error from fn
// stops the traversal.
//
// It is copy-on-change. When fn returns every child unchanged, MapChildren
// returns e itself and allocates nothing; otherwise it returns a shallow
// copy of e with the new children, allocated from a (heap when a is nil;
// a KeyFilterExpr, which never comes from an arena, always from the heap)
// and keeping every other field. It never writes into e.
//
// Subqueries are statements, not children: ExistsExpr is a leaf and
// InSubquery's only child is its probe expression.
func MapChildren(a *Arena, e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	var err error
	switch x := e.(type) {
	case nil, *Literal, *Param, *ColumnRef, *ExistsExpr:
		return e, nil
	case *BinaryExpr:
		c := *x
		if c.Left, err = mapChild(x.Left, fn); err != nil {
			return nil, err
		}
		if c.Right, err = mapChild(x.Right, fn); err != nil {
			return nil, err
		}
		if c != *x {
			return New(a, c), nil
		}
	case *UnaryExpr:
		c := *x
		if c.Child, err = mapChild(x.Child, fn); err != nil {
			return nil, err
		}
		if c != *x {
			return New(a, c), nil
		}
	case *IsNullExpr:
		c := *x
		if c.Child, err = mapChild(x.Child, fn); err != nil {
			return nil, err
		}
		if c != *x {
			return New(a, c), nil
		}
	case *InExpr:
		c := *x
		var changed bool
		if c.Child, err = mapChild(x.Child, fn); err != nil {
			return nil, err
		}
		if c.List, changed, err = mapList(a, x.List, fn); err != nil {
			return nil, err
		}
		if changed || c.Child != x.Child {
			return New(a, c), nil
		}
	case *InSubquery:
		c := *x
		if c.Child, err = mapChild(x.Child, fn); err != nil {
			return nil, err
		}
		if c != *x {
			return New(a, c), nil
		}
	case *BetweenExpr:
		c := *x
		if c.Child, err = mapChild(x.Child, fn); err != nil {
			return nil, err
		}
		if c.Lo, err = mapChild(x.Lo, fn); err != nil {
			return nil, err
		}
		if c.Hi, err = mapChild(x.Hi, fn); err != nil {
			return nil, err
		}
		if c != *x {
			return New(a, c), nil
		}
	case *FuncExpr:
		c := *x
		var changed bool
		if c.Args, changed, err = mapList(a, x.Args, fn); err != nil {
			return nil, err
		}
		if changed {
			return New(a, c), nil
		}
	case *CaseExpr:
		c := *x
		var whens []CaseWhen // allocated at the first changed arm
		for i, w := range x.Whens {
			var nw CaseWhen
			if nw.Cond, err = mapChild(w.Cond, fn); err != nil {
				return nil, err
			}
			if nw.Result, err = mapChild(w.Result, fn); err != nil {
				return nil, err
			}
			if nw != w && whens == nil {
				whens = arena.Copy(a.set(), x.Whens)
				c.Whens = whens
			}
			if whens != nil {
				whens[i] = nw
			}
		}
		if c.Else, err = mapChild(x.Else, fn); err != nil {
			return nil, err
		}
		if whens != nil || c.Else != x.Else {
			return New(a, c), nil
		}
	case *CastExpr:
		c := *x
		if c.Child, err = mapChild(x.Child, fn); err != nil {
			return nil, err
		}
		if c != *x {
			return New(a, c), nil
		}
	case *KeyFilterExpr:
		child, err := mapChild(x.Child, fn)
		if err != nil {
			return nil, err
		}
		if child != x.Child {
			c := *x // copied only here: the copy goes to the heap
			c.Child = child
			return &c, nil
		}
	default:
		panic(fmt.Sprintf("sqlparse: MapChildren missing case for %T", e))
	}
	return e, nil
}

// mapChild applies fn to one child; a nil child is a leaf and stays nil.
func mapChild(c Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	if c == nil {
		return nil, nil
	}
	return fn(c)
}

// mapList applies fn to every item of list. It returns list itself when
// nothing changed, and otherwise a copy from a with the new items.
func mapList(a *Arena, list []Expr, fn func(Expr) (Expr, error)) ([]Expr, bool, error) {
	var out []Expr // allocated at the first changed item
	for i, item := range list {
		n, err := mapChild(item, fn)
		if err != nil {
			return nil, false, err
		}
		if n != item && out == nil {
			out = arena.Copy(a.set(), list)
		}
		if out != nil {
			out[i] = n
		}
	}
	if out == nil {
		return list, false, nil
	}
	return out, true, nil
}

// RewriteIn applies fn to every node of the expression bottom-up
// (children first, left to right) through MapChildren. The input is never
// mutated: a changed child produces a fresh copy of each node above it,
// allocated from a (heap when a is nil), and a rewrite that changes
// nothing returns e itself. The result shares every unchanged subtree with
// e and lives only until a is Reset; it is used on the per-query hot path,
// where bound parameter subtrees die with the query's arena.
func RewriteIn(a *Arena, e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	var rec func(Expr) (Expr, error)
	rec = func(x Expr) (Expr, error) {
		n, err := MapChildren(a, x, rec)
		if err != nil {
			return nil, err
		}
		return fn(n)
	}
	return rec(e)
}

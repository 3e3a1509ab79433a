package sqlparse

import (
	"fmt"

	"repro/internal/arena"
)

// Retainer copies expressions out of a query arena into compact heap
// memory, for a plan compiled in the arena that must outlive it
// (plan.Retain). Expr and List walk the expressions twice: a sizing walk
// counts what the copies need, then a copying walk, with Copying set,
// carves them from one exactly sized block per node or list type present.
// The copies share nothing with the arena; a subtree wholly outside it — a
// stored view's join condition, say — is shared rather than copied, as
// are strings and datum values, which no arena owns.
//
// Compiled plans hold no EXISTS or IN (SELECT ...): the planner joins
// each subquery onto the plan, so the Retainer copies neither.
type Retainer struct {
	// From is the arena the copies leave; nil copies everything.
	From *Arena
	// Copying selects the copying walk, which follows the sizing walk.
	Copying bool

	literals  arena.Block[Literal]
	params    arena.Block[Param]
	colRefs   arena.Block[ColumnRef]
	binaries  arena.Block[BinaryExpr]
	unaries   arena.Block[UnaryExpr]
	isNulls   arena.Block[IsNullExpr]
	ins       arena.Block[InExpr]
	betweens  arena.Block[BetweenExpr]
	funcs     arena.Block[FuncExpr]
	caseExprs arena.Block[CaseExpr]
	casts     arena.Block[CastExpr]
	exprs     arena.Block[Expr]
	whens     arena.Block[CaseWhen]
}

// Expr counts e's nodes and lists while sizing, and returns e's deep copy
// while copying. It decides sharing bottom up, in the same switch in both
// walks: e is shared, and comes back as itself, when neither e nor the
// backing array of its list (InExpr, FuncExpr, CaseExpr) is From's and
// every child came back as itself. While sizing, any other e comes back
// nil.
//
// It copies every node it does not share with its lists, whatever lies
// below, so it enumerates the children itself rather than through
// MapChildren, which keeps a node whose children come back unchanged:
// here that node, or a list of it, may be the arena's over subtrees the
// copy shares.
func (r *Retainer) Expr(e Expr) Expr {
	c := r.Copying
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		if owned(r, x) {
			return r.literals.One(c, *x)
		}
	case *Param:
		if owned(r, x) {
			return r.params.One(c, *x)
		}
	case *ColumnRef:
		if owned(r, x) {
			return r.colRefs.One(c, *x)
		}
	case *BinaryExpr:
		if l, rt := r.Expr(x.Left), r.Expr(x.Right); l != x.Left || rt != x.Right || owned(r, x) {
			return r.binaries.One(c, BinaryExpr{Op: x.Op, Left: l, Right: rt})
		}
	case *UnaryExpr:
		if child := r.Expr(x.Child); child != x.Child || owned(r, x) {
			return r.unaries.One(c, UnaryExpr{Op: x.Op, Child: child})
		}
	case *IsNullExpr:
		if child := r.Expr(x.Child); child != x.Child || owned(r, x) {
			return r.isNulls.One(c, IsNullExpr{Child: child, Not: x.Not})
		}
	case *InExpr:
		child := r.Expr(x.Child)
		if list, kept := r.list(x.List, child == x.Child && !owned(r, x)); !kept {
			return r.ins.One(c, InExpr{Child: child, List: list, Not: x.Not})
		}
	case *BetweenExpr:
		if ch, lo, hi := r.Expr(x.Child), r.Expr(x.Lo), r.Expr(x.Hi); ch != x.Child || lo != x.Lo || hi != x.Hi || owned(r, x) {
			return r.betweens.One(c, BetweenExpr{Child: ch, Lo: lo, Hi: hi, Not: x.Not})
		}
	case *FuncExpr:
		if args, kept := r.list(x.Args, !owned(r, x)); !kept {
			return r.funcs.One(c, FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args})
		}
	case *CaseExpr:
		els := r.Expr(x.Else)
		kept := els == x.Else && !owned(r, x) && !ownedList(r, x.Whens)
		var whens []CaseWhen
		if !kept {
			whens = r.whens.List(c, x.Whens)
		}
		for i, w := range x.Whens {
			cond, res := r.Expr(w.Cond), r.Expr(w.Result)
			if kept && (cond != w.Cond || res != w.Result) {
				kept = false // every when before i came back as itself
				whens = r.whens.List(c, x.Whens)
			}
			if c && !kept {
				whens[i] = CaseWhen{Cond: cond, Result: res}
			}
		}
		if !kept {
			return r.caseExprs.One(c, CaseExpr{Whens: whens, Else: els})
		}
	case *CastExpr:
		if child := r.Expr(x.Child); child != x.Child || owned(r, x) {
			return r.casts.One(c, CastExpr{Child: child, Type: x.Type})
		}
	case *KeyFilterExpr:
		// Never from an arena: copied to the heap on its own, as
		// MapChildren copies it, when its child is.
		if child := r.Expr(x.Child); child != x.Child || r.From == nil {
			if !c {
				return nil
			}
			v := *x
			v.Child = child
			return &v
		}
	default:
		panic(fmt.Sprintf("sqlparse: Retainer missing case for %T", e))
	}
	return e
}

// owned reports whether the node or list element p must be copied: it is
// From's, or From is nil.
func owned[T any](r *Retainer, p *T) bool {
	return r.From == nil || arena.Holds(&r.From.slabs, p)
}

// ownedList reports whether list's backing array must be copied.
func ownedList[T any](r *Retainer, list []T) bool {
	return len(list) > 0 && owned(r, &list[0])
}

// List counts list, the list included, while sizing, and returns its deep
// copy, the list carved from a block too, while copying.
func (r *Retainer) List(list []Expr) []Expr {
	out, _ := r.list(list, false)
	return out
}

// list is List for a list held by a node that is otherwise shared when
// keep is set: then list comes back as itself, with kept set, when its
// backing array is not From's and every element came back as itself.
// Otherwise the list is copied, carved at the first element that was not
// kept, the ones before it being themselves.
func (r *Retainer) list(list []Expr, keep bool) (out []Expr, kept bool) {
	kept = keep && !ownedList(r, list)
	if kept {
		out = list
	} else {
		out = r.exprs.List(r.Copying, list)
	}
	for i, e := range list {
		cp := r.Expr(e)
		if kept && cp != e {
			kept = false
			out = r.exprs.List(r.Copying, list)
		}
		if r.Copying && !kept {
			out[i] = cp
		}
	}
	return out, kept
}

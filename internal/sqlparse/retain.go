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
// Subqueries are statements, not children (see MapChildren): a copied
// EXISTS or IN (SELECT ...) shares its Query. Compiled plans hold
// neither: the mediator pre-evaluates both before planning.
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
	inSubs    arena.Block[InSubquery]
	betweens  arena.Block[BetweenExpr]
	funcs     arena.Block[FuncExpr]
	caseExprs arena.Block[CaseExpr]
	casts     arena.Block[CastExpr]
	existss   arena.Block[ExistsExpr]
	exprs     arena.Block[Expr]
	whens     arena.Block[CaseWhen]
}

// shared reports whether nothing of e lies in From: not e, not a node or
// list below it. The copy then points at e itself.
func (r *Retainer) shared(e Expr) bool {
	if r.From == nil {
		return false
	}
	held := false
	WalkExprs(e, func(x Expr) { held = held || r.From.holds(x) })
	return !held
}

// Expr counts e's nodes and lists while sizing, and returns e's deep copy
// while copying.
//
// It copies every node it does not share with its lists, whatever lies
// below, so it enumerates the children itself rather than through
// MapChildren, which keeps a node whose children come back unchanged:
// here that node, or a list of it, may be the arena's over subtrees the
// copy shares.
func (r *Retainer) Expr(e Expr) Expr {
	if e == nil || r.shared(e) {
		return e
	}
	c := r.Copying
	switch x := e.(type) {
	case *Literal:
		return r.literals.One(c, *x)
	case *Param:
		return r.params.One(c, *x)
	case *ColumnRef:
		return r.colRefs.One(c, *x)
	case *ExistsExpr:
		return r.existss.One(c, *x)
	case *BinaryExpr:
		return r.binaries.One(c, BinaryExpr{Op: x.Op, Left: r.Expr(x.Left), Right: r.Expr(x.Right)})
	case *UnaryExpr:
		return r.unaries.One(c, UnaryExpr{Op: x.Op, Child: r.Expr(x.Child)})
	case *IsNullExpr:
		return r.isNulls.One(c, IsNullExpr{Child: r.Expr(x.Child), Not: x.Not})
	case *InExpr:
		return r.ins.One(c, InExpr{Child: r.Expr(x.Child), List: r.List(x.List), Not: x.Not})
	case *InSubquery:
		return r.inSubs.One(c, InSubquery{Child: r.Expr(x.Child), Query: x.Query, Not: x.Not})
	case *BetweenExpr:
		return r.betweens.One(c, BetweenExpr{Child: r.Expr(x.Child), Lo: r.Expr(x.Lo), Hi: r.Expr(x.Hi), Not: x.Not})
	case *FuncExpr:
		return r.funcs.One(c, FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: r.List(x.Args)})
	case *CaseExpr:
		whens := r.whens.List(c, x.Whens)
		for i, w := range x.Whens {
			if cond, res := r.Expr(w.Cond), r.Expr(w.Result); c {
				whens[i] = CaseWhen{Cond: cond, Result: res}
			}
		}
		return r.caseExprs.One(c, CaseExpr{Whens: whens, Else: r.Expr(x.Else)})
	case *CastExpr:
		return r.casts.One(c, CastExpr{Child: r.Expr(x.Child), Type: x.Type})
	case *KeyFilterExpr:
		// Copied to the heap on its own, as MapChildren copies it.
		if child := r.Expr(x.Child); c {
			v := *x
			v.Child = child
			return &v
		}
		return nil
	default:
		panic(fmt.Sprintf("sqlparse: Retainer missing case for %T", e))
	}
}

// List counts list, the list included, while sizing, and returns its deep
// copy, the list carved from a block too, while copying.
func (r *Retainer) List(list []Expr) []Expr {
	out := r.exprs.List(r.Copying, list)
	for i, e := range list {
		if cp := r.Expr(e); r.Copying {
			out[i] = cp
		}
	}
	return out
}

package sqlparse

import "fmt"

// Retainer copies expressions out of a query arena into compact heap
// memory, for a plan compiled in the arena that must outlive it
// (plan.Retain). Count every expression first; Reserve then allocates one
// exactly sized block per node or list type counted, and Copy fills them.
// The copies share nothing with the arena; a subtree wholly outside it —
// a stored view's join condition, say — is shared rather than copied, as
// are strings and datum values, which no arena owns.
//
// Subqueries are statements, not children (see MapChildren): a copied
// EXISTS or IN (SELECT ...) shares its Query. Compiled plans hold
// neither: the mediator pre-evaluates both before planning.
type Retainer struct {
	// From is the arena the copies leave; nil copies everything.
	From *Arena
	// blocks is never reset: after Reserve its slabs hold exactly the
	// counted values, and the copies keep those blocks alive.
	blocks Arena
	n      retainCounts
}

// retainCounts is how many values of each type the copies need.
type retainCounts struct {
	literals, params, colRefs, binaries, unaries, isNulls, ins, inSubs int
	betweens, funcs, caseExprs, casts, existss, exprs, whens           int
}

// Count adds e's nodes and lists to the copy's size.
func (r *Retainer) Count(e Expr) {
	if e == nil || r.shared(e) {
		return
	}
	switch x := e.(type) {
	case *Literal:
		r.n.literals++
	case *Param:
		r.n.params++
	case *ColumnRef:
		r.n.colRefs++
	case *BinaryExpr:
		r.n.binaries++
	case *UnaryExpr:
		r.n.unaries++
	case *IsNullExpr:
		r.n.isNulls++
	case *InExpr:
		r.n.ins++
		r.n.exprs += len(x.List)
	case *InSubquery:
		r.n.inSubs++
	case *BetweenExpr:
		r.n.betweens++
	case *FuncExpr:
		r.n.funcs++
		r.n.exprs += len(x.Args)
	case *CaseExpr:
		r.n.caseExprs++
		r.n.whens += len(x.Whens)
	case *CastExpr:
		r.n.casts++
	case *ExistsExpr:
		r.n.existss++
	case *KeyFilterExpr:
		// Copied to the heap on its own, as MapChildren copies it.
	}
	MapChildren(nil, e, func(c Expr) (Expr, error) {
		r.Count(c)
		return c, nil
	})
}

// CountList adds a list of expressions, the list included, to the copy's
// size.
func (r *Retainer) CountList(list []Expr) {
	r.n.exprs += len(list)
	for _, e := range list {
		r.Count(e)
	}
}

// Reserve allocates the counted blocks. Call it once, after the last
// Count and before the first Copy.
func (r *Retainer) Reserve() {
	b, n := &r.blocks, &r.n
	b.literals.Reserve(n.literals)
	b.params.Reserve(n.params)
	b.colRefs.Reserve(n.colRefs)
	b.binaries.Reserve(n.binaries)
	b.unaries.Reserve(n.unaries)
	b.isNulls.Reserve(n.isNulls)
	b.ins.Reserve(n.ins)
	b.inSubs.Reserve(n.inSubs)
	b.betweens.Reserve(n.betweens)
	b.funcs.Reserve(n.funcs)
	b.caseExprs.Reserve(n.caseExprs)
	b.casts.Reserve(n.casts)
	b.existss.Reserve(n.existss)
	b.exprSlices.Reserve(n.exprs)
	b.whenSlices.Reserve(n.whens)
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

// Copy returns a deep copy of e carved from the reserved blocks.
//
// It copies every node it does not share with its lists, whatever lies
// below, so it enumerates the children itself rather than through
// MapChildren, which keeps a node whose children come back unchanged:
// here that node, or a list of it, may be the arena's over subtrees the
// copy shares.
func (r *Retainer) Copy(e Expr) Expr {
	if e == nil || r.shared(e) {
		return e
	}
	b := &r.blocks
	switch x := e.(type) {
	case *Literal:
		return b.newLiteral(*x)
	case *Param:
		return b.newParam(*x)
	case *ColumnRef:
		return b.newColumnRef(*x)
	case *ExistsExpr:
		return b.newExists(*x)
	case *BinaryExpr:
		return b.newBinary(BinaryExpr{Op: x.Op, Left: r.Copy(x.Left), Right: r.Copy(x.Right)})
	case *UnaryExpr:
		return b.newUnary(UnaryExpr{Op: x.Op, Child: r.Copy(x.Child)})
	case *IsNullExpr:
		return b.newIsNull(IsNullExpr{Child: r.Copy(x.Child), Not: x.Not})
	case *InExpr:
		return b.newIn(InExpr{Child: r.Copy(x.Child), List: r.CopyList(x.List), Not: x.Not})
	case *InSubquery:
		return b.newInSubquery(InSubquery{Child: r.Copy(x.Child), Query: x.Query, Not: x.Not})
	case *BetweenExpr:
		return b.newBetween(BetweenExpr{Child: r.Copy(x.Child), Lo: r.Copy(x.Lo), Hi: r.Copy(x.Hi), Not: x.Not})
	case *FuncExpr:
		return b.newFunc(FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: r.CopyList(x.Args)})
	case *CaseExpr:
		var whens []CaseWhen
		if len(x.Whens) > 0 {
			whens = b.makeWhens(len(x.Whens))
			for i, w := range x.Whens {
				whens[i] = CaseWhen{Cond: r.Copy(w.Cond), Result: r.Copy(w.Result)}
			}
		}
		return b.newCase(CaseExpr{Whens: whens, Else: r.Copy(x.Else)})
	case *CastExpr:
		return b.newCast(CastExpr{Child: r.Copy(x.Child), Type: x.Type})
	case *KeyFilterExpr:
		c := *x
		c.Child = r.Copy(x.Child)
		return &c
	default:
		panic(fmt.Sprintf("sqlparse: Retainer missing case for %T", e))
	}
}

// CopyList returns a deep copy of list, the list carved from the reserved
// blocks too.
func (r *Retainer) CopyList(list []Expr) []Expr {
	if len(list) == 0 {
		return nil
	}
	out := r.blocks.makeExprs(len(list))
	for i, e := range list {
		out[i] = r.Copy(e)
	}
	return out
}

package sqlparse

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/datum"
)

// Arena bundles the typed slabs and scratch buffers behind one
// parse→bind→execute cycle. ParseArena allocates every AST node and
// list out of it, RewriteIn/plan.BindParamsIn clone bound subtrees into
// it, and Reset recycles the lot, so a warm query compiles with almost
// no heap allocation.
//
// An Arena is not safe for concurrent use and everything allocated from
// it dies at Reset; the retain analyzer enforces that arena-backed
// values are never stored past the query (see DESIGN.md §10). A plan
// compiled in the arena reaches the plan cache only as plan.Retain's
// compact heap copy; an AST that must outlive the query itself — a view
// definition — comes from the plain heap-allocating Parse.
type Arena struct {
	// Node slabs, one per AST node type.
	selects   arena.Slab[Select]
	literals  arena.Slab[Literal]
	params    arena.Slab[Param]
	colRefs   arena.Slab[ColumnRef]
	binaries  arena.Slab[BinaryExpr]
	unaries   arena.Slab[UnaryExpr]
	isNulls   arena.Slab[IsNullExpr]
	ins       arena.Slab[InExpr]
	inSubs    arena.Slab[InSubquery]
	betweens  arena.Slab[BetweenExpr]
	funcs     arena.Slab[FuncExpr]
	caseExprs arena.Slab[CaseExpr]
	casts     arena.Slab[CastExpr]
	existss   arena.Slab[ExistsExpr]
	baseTabs  arena.Slab[BaseTable]
	joins     arena.Slab[Join]
	subTabs   arena.Slab[SubqueryTable]

	// Slice slabs backing the list-valued AST fields.
	itemSlices  arena.Slab[SelectItem]
	orderSlices arena.Slab[OrderItem]
	exprSlices  arena.Slab[Expr]
	refSlices   arena.Slab[TableRef]
	whenSlices  arena.Slab[CaseWhen]

	// Scratch: the reused token buffer and the parser's list-building
	// stacks. While a list is open the parser appends to the stack, then
	// copies the finished run into a slice slab and truncates back to its
	// mark, so nested lists (subqueries, CASE, IN) interleave safely.
	toks     []Token
	itemStk  []SelectItem
	orderStk []OrderItem
	exprStk  []Expr
	refStk   []TableRef
	whenStk  []CaseWhen
	sqlBuf   []byte
	valStk   []datum.Datum

	// ext is an optional attached arena sharing this arena's lifecycle
	// (see ExtArena).
	ext ExtArena
}

// ExtArena is an auxiliary arena that shares an Arena's lifecycle: Reset
// and Bytes fan out to it. Downstream layers (plan's node slabs for
// parameter binding) attach theirs here so their blocks recycle on the
// same query boundary without a second pool.
type ExtArena interface {
	Reset()
	Bytes() int64
}

// Ext returns the attached extension arena, nil when none is attached.
func (a *Arena) Ext() ExtArena {
	if a == nil {
		return nil
	}
	return a.ext
}

// SetExt attaches an extension arena for the life of this Arena. The
// extension stays attached across Reset/pool cycles.
func (a *Arena) SetExt(e ExtArena) { a.ext = e }

// NewArena returns an empty arena. The zero value is also usable.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every slab block and scratch buffer for reuse. All AST
// nodes and slices previously produced through the arena become invalid.
func (a *Arena) Reset() {
	a.selects.Reset()
	a.literals.Reset()
	a.params.Reset()
	a.colRefs.Reset()
	a.binaries.Reset()
	a.unaries.Reset()
	a.isNulls.Reset()
	a.ins.Reset()
	a.inSubs.Reset()
	a.betweens.Reset()
	a.funcs.Reset()
	a.caseExprs.Reset()
	a.casts.Reset()
	a.existss.Reset()
	a.baseTabs.Reset()
	a.joins.Reset()
	a.subTabs.Reset()
	a.itemSlices.Reset()
	a.orderSlices.Reset()
	a.exprSlices.Reset()
	a.refSlices.Reset()
	a.whenSlices.Reset()
	a.toks = a.toks[:0]
	a.itemStk = a.itemStk[:0]
	a.orderStk = a.orderStk[:0]
	a.exprStk = a.exprStk[:0]
	a.refStk = a.refStk[:0]
	a.whenStk = a.whenStk[:0]
	a.sqlBuf = a.sqlBuf[:0]
	a.valStk = a.valStk[:0]
	if a.ext != nil {
		a.ext.Reset()
	}
}

// Bytes reports the payload footprint of everything allocated from the
// arena since the last Reset (surfaced as Result.ArenaBytes).
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.selects.Bytes() +
		a.literals.Bytes() +
		a.params.Bytes() +
		a.colRefs.Bytes() +
		a.binaries.Bytes() +
		a.unaries.Bytes() +
		a.isNulls.Bytes() +
		a.ins.Bytes() +
		a.inSubs.Bytes() +
		a.betweens.Bytes() +
		a.funcs.Bytes() +
		a.caseExprs.Bytes() +
		a.casts.Bytes() +
		a.existss.Bytes() +
		a.baseTabs.Bytes() +
		a.joins.Bytes() +
		a.subTabs.Bytes() +
		a.itemSlices.Bytes() +
		a.orderSlices.Bytes() +
		a.exprSlices.Bytes() +
		a.refSlices.Bytes() +
		a.whenSlices.Bytes() +
		a.extBytes()
}

func (a *Arena) extBytes() int64 {
	if a.ext == nil {
		return 0
	}
	return a.ext.Bytes()
}

// RenderSQL renders a node through the arena's reused byte buffer, so a
// warm cache-key render costs exactly the final string copy. Falls back
// to plain rendering when a is nil.
func (a *Arena) RenderSQL(n Node) string {
	if a == nil {
		return nodeSQL(n)
	}
	b := n.appendSQL(a.sqlBuf[:0])
	a.sqlBuf = b[:0]
	return string(b)
}

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena takes a warmed arena from the process-wide pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena resets a and returns it to the pool. The caller must ensure
// nothing allocated from a (AST nodes, bound plans, lists) is still
// reachable; PutArena on every query exit path is the discipline the
// engine follows and the retain analyzer checks.
func PutArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}

// NewLiteral allocates a literal from the arena (heap when a is nil).
// Exported for plan.BindParamsIn, which replaces Param leaves with bound
// values during parameter binding.
func (a *Arena) NewLiteral(v datum.Datum) *Literal {
	return a.newLiteral(Literal{Value: v})
}

// NewColumnRef allocates a column reference from the arena (heap when a
// is nil): the optimizer's and the plan builder's references to the
// columns a node names.
func (a *Arena) NewColumnRef(table, column string) *ColumnRef {
	return a.newColumnRef(ColumnRef{Table: table, Column: column})
}

// NewBinary allocates a binary expression from the arena (heap when a is
// nil).
func (a *Arena) NewBinary(op BinOp, left, right Expr) *BinaryExpr {
	return a.newBinary(BinaryExpr{Op: op, Left: left, Right: right})
}

// MakeExprs returns n zeroed expression slots with cap == n from the arena
// (heap when a is nil).
func (a *Arena) MakeExprs(n int) []Expr { return a.makeExprs(n) }

// MakeColumnRefs returns n zeroed column references in one block with
// cap == n from the arena (heap when a is nil), for a list of references
// built at once.
func (a *Arena) MakeColumnRefs(n int) []ColumnRef {
	if a == nil {
		return make([]ColumnRef, n)
	}
	return a.colRefs.Make(n)
}

// holds reports whether the node e, or a list it holds, came from a.
func (a *Arena) holds(e Expr) bool {
	switch x := e.(type) {
	case *Literal:
		return a.literals.Holds(x)
	case *Param:
		return a.params.Holds(x)
	case *ColumnRef:
		return a.colRefs.Holds(x)
	case *BinaryExpr:
		return a.binaries.Holds(x)
	case *UnaryExpr:
		return a.unaries.Holds(x)
	case *IsNullExpr:
		return a.isNulls.Holds(x)
	case *InExpr:
		return a.ins.Holds(x) || len(x.List) > 0 && a.exprSlices.Holds(&x.List[0])
	case *InSubquery:
		return a.inSubs.Holds(x)
	case *BetweenExpr:
		return a.betweens.Holds(x)
	case *FuncExpr:
		return a.funcs.Holds(x) || len(x.Args) > 0 && a.exprSlices.Holds(&x.Args[0])
	case *CaseExpr:
		return a.caseExprs.Holds(x) || len(x.Whens) > 0 && a.whenSlices.Holds(&x.Whens[0])
	case *CastExpr:
		return a.casts.Holds(x)
	case *ExistsExpr:
		return a.existss.Holds(x)
	case *KeyFilterExpr:
		return false // never from an arena
	default:
		panic(fmt.Sprintf("sqlparse: holds missing case for %T", e))
	}
}

// Allocation helpers. All are nil-receiver safe: a nil arena falls back
// to plain heap allocation, which is what retain-safe callers (Parse,
// Rewrite) use.

func (a *Arena) newSelect(v Select) *Select {
	if a == nil {
		return &Select{Distinct: v.Distinct, Items: v.Items, From: v.From, Where: v.Where,
			GroupBy: v.GroupBy, Having: v.Having, OrderBy: v.OrderBy,
			Limit: v.Limit, Offset: v.Offset, UnionAll: v.UnionAll}
	}
	return a.selects.New(v)
}

func (a *Arena) newLiteral(v Literal) *Literal {
	if a == nil {
		return &Literal{Value: v.Value}
	}
	return a.literals.New(v)
}

func (a *Arena) newParam(v Param) *Param {
	if a == nil {
		return &Param{Index: v.Index}
	}
	return a.params.New(v)
}

func (a *Arena) newColumnRef(v ColumnRef) *ColumnRef {
	if a == nil {
		return &ColumnRef{Table: v.Table, Column: v.Column}
	}
	return a.colRefs.New(v)
}

func (a *Arena) newBinary(v BinaryExpr) *BinaryExpr {
	if a == nil {
		return &BinaryExpr{Op: v.Op, Left: v.Left, Right: v.Right}
	}
	return a.binaries.New(v)
}

func (a *Arena) newUnary(v UnaryExpr) *UnaryExpr {
	if a == nil {
		return &UnaryExpr{Op: v.Op, Child: v.Child}
	}
	return a.unaries.New(v)
}

func (a *Arena) newIsNull(v IsNullExpr) *IsNullExpr {
	if a == nil {
		return &IsNullExpr{Child: v.Child, Not: v.Not}
	}
	return a.isNulls.New(v)
}

func (a *Arena) newIn(v InExpr) *InExpr {
	if a == nil {
		return &InExpr{Child: v.Child, List: v.List, Not: v.Not}
	}
	return a.ins.New(v)
}

func (a *Arena) newInSubquery(v InSubquery) *InSubquery {
	if a == nil {
		return &InSubquery{Child: v.Child, Query: v.Query, Not: v.Not}
	}
	return a.inSubs.New(v)
}

func (a *Arena) newBetween(v BetweenExpr) *BetweenExpr {
	if a == nil {
		return &BetweenExpr{Child: v.Child, Lo: v.Lo, Hi: v.Hi, Not: v.Not}
	}
	return a.betweens.New(v)
}

func (a *Arena) newFunc(v FuncExpr) *FuncExpr {
	if a == nil {
		return &FuncExpr{Name: v.Name, Distinct: v.Distinct, Star: v.Star, Args: v.Args}
	}
	return a.funcs.New(v)
}

func (a *Arena) newCase(v CaseExpr) *CaseExpr {
	if a == nil {
		return &CaseExpr{Whens: v.Whens, Else: v.Else}
	}
	return a.caseExprs.New(v)
}

func (a *Arena) newCast(v CastExpr) *CastExpr {
	if a == nil {
		return &CastExpr{Child: v.Child, Type: v.Type}
	}
	return a.casts.New(v)
}

func (a *Arena) newExists(v ExistsExpr) *ExistsExpr {
	if a == nil {
		return &ExistsExpr{Query: v.Query, Not: v.Not}
	}
	return a.existss.New(v)
}

func (a *Arena) newBaseTable(v BaseTable) *BaseTable {
	if a == nil {
		return &BaseTable{Source: v.Source, Name: v.Name, Alias: v.Alias}
	}
	return a.baseTabs.New(v)
}

func (a *Arena) newJoin(v Join) *Join {
	if a == nil {
		return &Join{Type: v.Type, Left: v.Left, Right: v.Right, On: v.On}
	}
	return a.joins.New(v)
}

func (a *Arena) newSubqueryTable(v SubqueryTable) *SubqueryTable {
	if a == nil {
		return &SubqueryTable{Query: v.Query, Alias: v.Alias}
	}
	return a.subTabs.New(v)
}

func (a *Arena) copyItems(src []SelectItem) []SelectItem {
	if a == nil {
		return append([]SelectItem(nil), src...)
	}
	return a.itemSlices.Copy(src)
}

func (a *Arena) copyOrders(src []OrderItem) []OrderItem {
	if a == nil {
		return append([]OrderItem(nil), src...)
	}
	return a.orderSlices.Copy(src)
}

func (a *Arena) copyExprs(src []Expr) []Expr {
	if a == nil {
		return append([]Expr(nil), src...)
	}
	return a.exprSlices.Copy(src)
}

func (a *Arena) copyRefs(src []TableRef) []TableRef {
	if a == nil {
		return append([]TableRef(nil), src...)
	}
	return a.refSlices.Copy(src)
}

func (a *Arena) copyWhens(src []CaseWhen) []CaseWhen {
	if a == nil {
		return append([]CaseWhen(nil), src...)
	}
	return a.whenSlices.Copy(src)
}

func (a *Arena) makeExprs(n int) []Expr {
	if a == nil {
		return make([]Expr, n)
	}
	return a.exprSlices.Make(n)
}

func (a *Arena) makeWhens(n int) []CaseWhen {
	if a == nil {
		return make([]CaseWhen, n)
	}
	return a.whenSlices.Make(n)
}

package sqlparse

import (
	"strconv"

	"repro/internal/datum"
)

// Node is implemented by every AST node.
type Node interface {
	// SQL renders the node back to SQL text. The rendering is
	// re-parseable and is what the pushdown deparser emits.
	SQL() string
	// appendSQL appends the same rendering to b; SQL is a wrapper. The
	// append form lets the plan-cache key path render a statement with a
	// single buffer instead of one allocation per subtree.
	appendSQL(b []byte) []byte
}

// appendIdent renders an identifier, double-quoting it when it is not a
// bare word the lexer would scan back as one token — spaces, punctuation,
// a leading digit, or a spelling that collides with a keyword. Keeping
// bare identifiers unquoted keeps rendered statements (cache keys,
// EXPLAIN, deparsed pushdowns) readable; quoting the rest makes
// parse→deparse→parse an identity.
func appendIdent(b []byte, s string) []byte {
	if isBareIdent(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// isBareIdent reports whether s lexes as a single plain identifier token.
func isBareIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	_, isKw := keywordOf(s)
	return !isKw
}

// nodeSQL renders any node through its appendSQL method.
func nodeSQL(n Node) string {
	return string(n.appendSQL(make([]byte, 0, 64)))
}

// Statement is the root of a parsed query.
type Statement interface {
	Node
	stmt()
}

// --- Statements ---

// Select is a SELECT statement, possibly with UNION ALL branches.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // cross-joined list; JOINs nest inside
	Where    Expr       // nil if absent
	GroupBy  []Expr
	Having   Expr // nil if absent
	OrderBy  []OrderItem
	Limit    Expr // nil if absent
	Offset   Expr // nil if absent
	// UnionAll chains additional SELECT branches (UNION ALL only).
	UnionAll *Select
}

func (*Select) stmt() {}

// SQL renders the statement.
func (s *Select) SQL() string { return nodeSQL(s) }

// AppendSQL appends the statement's rendering to b and returns the
// extended slice; it lets callers that render repeatedly (the plan-cache
// key path) reuse one buffer.
func (s *Select) AppendSQL(b []byte) []byte { return s.appendSQL(b) }

func (s *Select) appendSQL(b []byte) []byte {
	b = append(b, "SELECT "...)
	if s.Distinct {
		b = append(b, "DISTINCT "...)
	}
	for i, it := range s.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = it.appendSQL(b)
	}
	if len(s.From) > 0 {
		b = append(b, " FROM "...)
		for i, t := range s.From {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = t.appendSQL(b)
		}
	}
	if s.Where != nil {
		b = append(b, " WHERE "...)
		b = s.Where.appendSQL(b)
	}
	if len(s.GroupBy) > 0 {
		b = append(b, " GROUP BY "...)
		for i, e := range s.GroupBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = e.appendSQL(b)
		}
	}
	if s.Having != nil {
		b = append(b, " HAVING "...)
		b = s.Having.appendSQL(b)
	}
	if len(s.OrderBy) > 0 {
		b = append(b, " ORDER BY "...)
		for i, o := range s.OrderBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = o.appendSQL(b)
		}
	}
	if s.Limit != nil {
		b = append(b, " LIMIT "...)
		b = s.Limit.appendSQL(b)
	}
	if s.Offset != nil {
		b = append(b, " OFFSET "...)
		b = s.Offset.appendSQL(b)
	}
	if s.UnionAll != nil {
		b = append(b, " UNION ALL "...)
		b = s.UnionAll.appendSQL(b)
	}
	return b
}

// SelectItem is one element of the select list.
type SelectItem struct {
	// Star is true for `*` or `t.*`; Expr is nil in that case and
	// TableQual holds the qualifier ("" for bare `*`).
	Star      bool
	TableQual string
	Expr      Expr
	Alias     string
}

// SQL renders the select item.
func (it SelectItem) SQL() string { return nodeSQL(it) }

func (it SelectItem) appendSQL(b []byte) []byte {
	if it.Star {
		if it.TableQual != "" {
			b = appendIdent(b, it.TableQual)
			return append(b, ".*"...)
		}
		return append(b, '*')
	}
	b = it.Expr.appendSQL(b)
	if it.Alias != "" {
		b = append(b, " AS "...)
		b = appendIdent(b, it.Alias)
	}
	return b
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the order item.
func (o OrderItem) SQL() string { return nodeSQL(o) }

func (o OrderItem) appendSQL(b []byte) []byte {
	b = o.Expr.appendSQL(b)
	if o.Desc {
		return append(b, " DESC"...)
	}
	return append(b, " ASC"...)
}

// --- Table references ---

// TableRef is a FROM-clause element.
type TableRef interface {
	Node
	tableRef()
}

// BaseTable references a named table, optionally qualified by a source
// ("src.table") and optionally aliased.
type BaseTable struct {
	Source string // "" when unqualified
	Name   string
	Alias  string
}

func (*BaseTable) tableRef() {}

// SQL renders the table reference.
func (t *BaseTable) SQL() string { return nodeSQL(t) }

func (t *BaseTable) appendSQL(b []byte) []byte {
	if t.Source != "" {
		b = appendIdent(b, t.Source)
		b = append(b, '.')
	}
	b = appendIdent(b, t.Name)
	if t.Alias != "" {
		b = append(b, " AS "...)
		b = appendIdent(b, t.Alias)
	}
	return b
}

// JoinType enumerates supported join types.
type JoinType uint8

// Supported join types.
const (
	JoinInner JoinType = iota
	JoinLeft
)

// String returns the SQL keyword for the join type.
func (j JoinType) String() string {
	if j == JoinLeft {
		return "LEFT JOIN"
	}
	return "JOIN"
}

// Join is an explicit JOIN ... ON between two table references.
type Join struct {
	Type        JoinType
	Left, Right TableRef
	On          Expr
}

func (*Join) tableRef() {}

// SQL renders the join.
func (j *Join) SQL() string { return nodeSQL(j) }

func (j *Join) appendSQL(b []byte) []byte {
	b = j.Left.appendSQL(b)
	b = append(b, ' ')
	b = append(b, j.Type.String()...)
	b = append(b, ' ')
	b = j.Right.appendSQL(b)
	b = append(b, " ON "...)
	return j.On.appendSQL(b)
}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Query *Select
	Alias string
}

func (*SubqueryTable) tableRef() {}

// SQL renders the derived table.
func (t *SubqueryTable) SQL() string { return nodeSQL(t) }

func (t *SubqueryTable) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = t.Query.appendSQL(b)
	b = append(b, ") AS "...)
	return appendIdent(b, t.Alias)
}

// --- Expressions ---

// Expr is any scalar expression.
type Expr interface {
	Node
	expr()
}

// Literal is a constant value.
type Literal struct {
	Value datum.Datum
}

func (*Literal) expr() {}

// SQL renders the literal.
func (l *Literal) SQL() string { return l.Value.String() }

func (l *Literal) appendSQL(b []byte) []byte { return l.Value.AppendSQL(b) }

// Param is a placeholder literal (`?` or `$n`) whose value binds at
// execute time, not plan time. Index is 1-based; `?` placeholders are
// numbered left to right by the parser. A plan containing unbound Params
// cannot execute — see plan.BindParams.
type Param struct {
	Index int
}

func (*Param) expr() {}

// SQL renders the placeholder in its explicit `$n` form, which re-parses
// to the same index regardless of surrounding placeholders.
func (p *Param) SQL() string { return "$" + strconv.Itoa(p.Index) }

func (p *Param) appendSQL(b []byte) []byte {
	b = append(b, '$')
	return strconv.AppendInt(b, int64(p.Index), 10)
}

// ColumnRef references a column, optionally qualified by table alias/name.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

func (*ColumnRef) expr() {}

// SQL renders the column reference.
func (c *ColumnRef) SQL() string { return nodeSQL(c) }

func (c *ColumnRef) appendSQL(b []byte) []byte {
	if c.Table != "" {
		b = appendIdent(b, c.Table)
		b = append(b, '.')
	}
	return appendIdent(b, c.Column)
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAnd BinOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
	OpLike
)

var binOpNames = map[BinOp]string{
	OpAnd: "AND", OpOr: "OR", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpConcat: "||", OpLike: "LIKE",
}

// String returns the SQL spelling of the operator.
func (o BinOp) String() string { return binOpNames[o] }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          BinOp
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

// SQL renders the expression fully parenthesized, which keeps the deparser
// trivially correct with respect to precedence.
func (b *BinaryExpr) SQL() string { return nodeSQL(b) }

func (x *BinaryExpr) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = x.Left.appendSQL(b)
	b = append(b, ' ')
	b = append(b, x.Op.String()...)
	b = append(b, ' ')
	b = x.Right.appendSQL(b)
	return append(b, ')')
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op    string // "NOT" or "-"
	Child Expr
}

func (*UnaryExpr) expr() {}

// SQL renders the expression.
func (u *UnaryExpr) SQL() string { return nodeSQL(u) }

func (u *UnaryExpr) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = append(b, u.Op...)
	if u.Op == "NOT" {
		b = append(b, ' ')
	}
	b = u.Child.appendSQL(b)
	return append(b, ')')
}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	Child Expr
	Not   bool
}

func (*IsNullExpr) expr() {}

// SQL renders the predicate.
func (e *IsNullExpr) SQL() string { return nodeSQL(e) }

func (e *IsNullExpr) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = e.Child.appendSQL(b)
	if e.Not {
		return append(b, " IS NOT NULL)"...)
	}
	return append(b, " IS NULL)"...)
}

// InExpr is `expr [NOT] IN (list)`.
type InExpr struct {
	Child Expr
	List  []Expr
	Not   bool
}

func (*InExpr) expr() {}

// SQL renders the predicate.
func (e *InExpr) SQL() string { return nodeSQL(e) }

func (e *InExpr) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = e.Child.appendSQL(b)
	if e.Not {
		b = append(b, " NOT IN ("...)
	} else {
		b = append(b, " IN ("...)
	}
	for i, x := range e.List {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = x.appendSQL(b)
	}
	return append(b, "))"...)
}

// InSubquery is `expr [NOT] IN (SELECT ...)`. The planner joins an
// uncorrelated one onto the plan of the query it sits in, in WHERE or
// HAVING, and no plan holds the expression itself.
type InSubquery struct {
	Child Expr
	Query *Select
	Not   bool
}

func (*InSubquery) expr() {}

// SQL renders the predicate.
func (e *InSubquery) SQL() string { return nodeSQL(e) }

func (e *InSubquery) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = e.Child.appendSQL(b)
	if e.Not {
		b = append(b, " NOT IN ("...)
	} else {
		b = append(b, " IN ("...)
	}
	b = e.Query.appendSQL(b)
	return append(b, "))"...)
}

// BetweenExpr is `expr [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	Child, Lo, Hi Expr
	Not           bool
}

func (*BetweenExpr) expr() {}

// SQL renders the predicate.
func (e *BetweenExpr) SQL() string { return nodeSQL(e) }

func (e *BetweenExpr) appendSQL(b []byte) []byte {
	b = append(b, '(')
	b = e.Child.appendSQL(b)
	if e.Not {
		b = append(b, " NOT BETWEEN "...)
	} else {
		b = append(b, " BETWEEN "...)
	}
	b = e.Lo.appendSQL(b)
	b = append(b, " AND "...)
	b = e.Hi.appendSQL(b)
	return append(b, ')')
}

// FuncExpr is a scalar or aggregate function call.
type FuncExpr struct {
	Name     string // upper-cased
	Distinct bool   // COUNT(DISTINCT x)
	Star     bool   // COUNT(*)
	Args     []Expr
}

func (*FuncExpr) expr() {}

// SQL renders the call.
func (f *FuncExpr) SQL() string { return nodeSQL(f) }

func (f *FuncExpr) appendSQL(b []byte) []byte {
	b = append(b, f.Name...)
	if f.Star {
		return append(b, "(*)"...)
	}
	b = append(b, '(')
	if f.Distinct {
		b = append(b, "DISTINCT "...)
	}
	for i, a := range f.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.appendSQL(b)
	}
	return append(b, ')')
}

// AggFuncs lists the recognized aggregate function names.
var AggFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncExpr) IsAggregate() bool { return AggFuncs[f.Name] }

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	Cond, Result Expr
}

func (*CaseExpr) expr() {}

// SQL renders the expression.
func (c *CaseExpr) SQL() string { return nodeSQL(c) }

func (c *CaseExpr) appendSQL(b []byte) []byte {
	b = append(b, "CASE"...)
	for _, w := range c.Whens {
		b = append(b, " WHEN "...)
		b = w.Cond.appendSQL(b)
		b = append(b, " THEN "...)
		b = w.Result.appendSQL(b)
	}
	if c.Else != nil {
		b = append(b, " ELSE "...)
		b = c.Else.appendSQL(b)
	}
	return append(b, " END"...)
}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	Child Expr
	Type  datum.Kind
}

func (*CastExpr) expr() {}

// SQL renders the cast.
func (c *CastExpr) SQL() string { return nodeSQL(c) }

func (c *CastExpr) appendSQL(b []byte) []byte {
	b = append(b, "CAST("...)
	b = c.Child.appendSQL(b)
	b = append(b, " AS "...)
	b = append(b, c.Type.String()...)
	return append(b, ')')
}

// ExistsExpr is EXISTS (subquery); NOT EXISTS is a NOT over it. Like
// InSubquery, the planner joins an uncorrelated one onto the plan of the
// query it sits in.
type ExistsExpr struct {
	Query *Select
}

func (*ExistsExpr) expr() {}

// SQL renders the predicate.
func (e *ExistsExpr) SQL() string { return nodeSQL(e) }

func (e *ExistsExpr) appendSQL(b []byte) []byte {
	b = append(b, "(EXISTS ("...)
	b = e.Query.appendSQL(b)
	return append(b, "))"...)
}

// SubqueryOf returns the statement of an IN or EXISTS subquery, and nil
// for any other expression.
func SubqueryOf(e Expr) *Select {
	if x, ok := e.(*InSubquery); ok {
		return x.Query
	}
	if x, ok := e.(*ExistsExpr); ok {
		return x.Query
	}
	return nil
}

// SplitConjuncts flattens a conjunction into its AND-ed terms; nil for a
// nil expression.
func SplitConjuncts(e Expr) []Expr {
	return AppendConjuncts(nil, e)
}

// AppendConjuncts appends the AND-ed terms of e to dst (nothing for a nil
// e) and returns the extended slice. Callers that only iterate the terms
// pass a stack buffer (var buf [8]Expr; AppendConjuncts(buf[:0], e)), so
// splitting a predicate on a per-query path allocates nothing.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	return appendConjuncts(dst, e)
}

// appendConjuncts accumulates AND-ed terms into dst, avoiding the
// per-level slice concatenation a naive recursive split would pay.
func appendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.Left), b.Right)
	}
	return append(dst, e)
}

// CombineConjuncts rebuilds an AND tree; nil for an empty list.
func CombineConjuncts(es []Expr) Expr { return CombineConjunctsIn(nil, es) }

// CombineConjunctsIn is CombineConjuncts with the AND nodes allocated from
// a (heap when a is nil).
func CombineConjunctsIn(a *Arena, es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = New(a, BinaryExpr{Op: OpAnd, Left: out, Right: e})
		}
	}
	return out
}

// WalkExprs calls fn for e and every expression beneath it, pre-order,
// descending through MapChildren (so a subquery's internals are not
// walked). It allocates nothing.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	// visit recurses into itself; the commonest leaves skip MapChildren.
	var visit func(Expr) (Expr, error)
	visit = func(c Expr) (Expr, error) {
		fn(c)
		switch c.(type) {
		case *ColumnRef, *Literal, *Param:
			return c, nil
		}
		return MapChildren(nil, c, visit)
	}
	visit(e)
}

// ContainsAggregate reports whether the expression contains an aggregate
// function call.
func ContainsAggregate(e Expr) bool {
	found := false
	WalkExprs(e, func(x Expr) {
		if f, ok := x.(*FuncExpr); ok && f.IsAggregate() {
			found = true
		}
	})
	return found
}

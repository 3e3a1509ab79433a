// Package exec implements the physical execution layer: a compiled
// expression evaluator, Volcano-style row operators, and a compiler from
// logical plans to operator trees. Both the mediator and the source
// wrappers execute plans through this package; the wrappers simply bind
// Scan leaves to their own local tables.
package exec

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Expr is a compiled expression: one node of a tree. Column references
// are resolved to offsets, constant IN-lists to hashed sets and literal
// LIKE patterns to regexps, so per-row evaluation does no name resolution
// and no allocation. A node's children sit side by side in kids, and a
// whole tree — every tree one Compile or compileAll call makes — is one
// block drawn from the query scratch (the heap when the scratch is nil),
// so compiling costs one allocator call, not one closure per node.
//
// Each node evaluates through the evaluator of its kind, a method
// expression fixed at compile time: one indirect call per node, as a
// closure tree pays, with each kind's frame only as large as that kind
// needs — a literal or a column reference costs next to nothing. (A
// switch over a kind field, one frame for every kind, measured 20–50%
// slower per row on compound predicates.)
type Expr struct {
	eval func(*Expr, datum.Row) (datum.Datum, error)
	op   sqlparse.BinOp // AND/OR, comparisons, arithmetic
	not  bool           // IS NOT NULL, NOT IN, NOT BETWEEN
	to   datum.Kind     // CAST's target
	// ord is a column reference's input ordinal plus one, and 0 for every
	// other kind (see at).
	ord int
	val datum.Datum // a literal
	// kids are the operands, in evaluation order: a binary operator's
	// left and right, BETWEEN's child, low and high bound, an IN-list's
	// child then its items, a function's arguments, CASE's condition and
	// result pairs then its ELSE, if any (so an odd count has one).
	kids []Expr
	name string                // a function's name
	ref  *sqlparse.ColumnRef   // a column reference, for error text
	re   *regexp.Regexp        // a literal LIKE pattern
	set  *inSet                // a constant IN-list
	keys sqlparse.KeySetFilter // a bloom key filter
}

// nullExpr is a NULL literal: what a nil expression compiles to.
var nullExpr = Expr{eval: (*Expr).evalLiteral}

// Compile resolves and compiles an expression against the input columns,
// drawing the tree from s (the heap when s is nil). The compiled tree lives
// exactly as long as s's query. A parameter compiles to its value in the
// plan template s runs (see Scratch.Params).
func Compile(s *Scratch, e sqlparse.Expr, cols []plan.ColMeta) (*Expr, error) {
	roots, err := compileAll(s, []sqlparse.Expr{e}, cols)
	if err != nil {
		return nil, err
	}
	return &roots[0], nil
}

// compileAll compiles exprs against cols into one block from s: the roots,
// in order, then every node beneath them. A nil expression (a COUNT(*)'s
// argument) leaves its root a NULL literal.
func compileAll(s *Scratch, exprs []sqlparse.Expr, cols []plan.ColMeta) ([]Expr, error) {
	return compileBlock(s, exprs, cols, paramMode{params: s.Params()})
}

// compileBlock compiles exprs as compileAll does, its parameters as m says.
func compileBlock(s *Scratch, exprs []sqlparse.Expr, cols []plan.ColMeta, m paramMode) ([]Expr, error) {
	n := len(exprs)
	for _, e := range exprs {
		n += m.nodes(e) - 1
	}
	block := Make[Expr](s, n)
	c := compiler{s: s, cols: cols, free: block[len(exprs):], paramMode: m}
	for i, e := range exprs {
		if e == nil {
			block[i] = nullExpr
			continue
		}
		if err := c.compile(&block[i], e); err != nil {
			return nil, err
		}
	}
	return block[:len(exprs):len(exprs)], nil
}

// compiler fills one block of nodes: free is the part not yet handed out.
type compiler struct {
	s    *Scratch
	cols []plan.ColMeta
	free []Expr
	paramMode
}

// paramMode is how a block compiles its parameters: each to its value in
// params, or, where slots is set (a fragment prepared once for many
// executions, see Prepare), each to a literal node recorded there that
// every execution binds.
type paramMode struct {
	params []datum.Datum
	slots  *[]paramSlot
}

// nodes counts the nodes compiling e fills: every node of e, except that
// a constant IN-list's items compile into its set and take none. The
// count is exact wherever compiling succeeds.
func (m paramMode) nodes(e sqlparse.Expr) int {
	if in, ok := e.(*sqlparse.InExpr); ok && m.allConstant(in.List) {
		return 1 + m.nodes(in.Child)
	}
	n := 1
	sqlparse.MapChildren(nil, e, func(x sqlparse.Expr) (sqlparse.Expr, error) {
		n += m.nodes(x)
		return x, nil
	})
	return n
}

// constant reports e's value when it is known at compile time: a
// literal's, or a parameter's outside a prepared fragment.
func (m paramMode) constant(e sqlparse.Expr) (datum.Datum, bool) {
	if lit, ok := e.(*sqlparse.Literal); ok {
		return lit.Value, true
	}
	if p, ok := e.(*sqlparse.Param); ok && m.slots == nil && p.Index >= 1 && p.Index <= len(m.params) {
		return m.params[p.Index-1], true
	}
	return datum.Datum{}, false
}

// allConstant reports whether every item of list is constant: the lists
// that compile to a hashed set.
func (m paramMode) allConstant(list []sqlparse.Expr) bool {
	for _, item := range list {
		if _, ok := m.constant(item); !ok {
			return false
		}
	}
	return true
}

// take hands out n adjacent nodes: one node's operands. They are taken
// before any of them compiles, since compiling one takes its own.
func (c *compiler) take(n int) []Expr {
	out := c.free[:n:n]
	c.free = c.free[n:]
	return out
}

// kids takes a node's operands and compiles es into them, in order.
func (c *compiler) kids(es ...sqlparse.Expr) ([]Expr, error) {
	out := c.take(len(es))
	for i, e := range es {
		if err := c.compile(&out[i], e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compile compiles e into dst.
func (c *compiler) compile(dst *Expr, e sqlparse.Expr) error {
	var err error
	switch x := e.(type) {
	case *sqlparse.Literal:
		*dst = Expr{eval: (*Expr).evalLiteral, val: x.Value}

	case *sqlparse.Param:
		if c.slots != nil {
			*dst = Expr{eval: (*Expr).evalLiteral}
			*c.slots = append(*c.slots, paramSlot{e: dst, k: x.Index})
			break
		}
		v, ok := c.constant(x)
		if !ok {
			// A plan holding a placeholder runs only as a template with
			// its values; reaching one without means it was run raw.
			return fmt.Errorf("exec: unbound parameter $%d; bind values before executing", x.Index)
		}
		*dst = Expr{eval: (*Expr).evalLiteral, val: v}

	case *sqlparse.ColumnRef:
		idx, err := plan.ResolveColumn(c.cols, x)
		if err != nil {
			return err
		}
		*dst = Expr{eval: (*Expr).evalColumn, ord: idx + 1, ref: x}

	case *sqlparse.BinaryExpr:
		return c.compileBinary(dst, x)

	case *sqlparse.UnaryExpr:
		*dst = Expr{eval: (*Expr).evalNeg}
		if x.Op == "NOT" {
			dst.eval = (*Expr).evalNot
		}
		dst.kids, err = c.kids(x.Child)

	case *sqlparse.IsNullExpr:
		*dst = Expr{eval: (*Expr).evalIsNull, not: x.Not}
		dst.kids, err = c.kids(x.Child)

	case *sqlparse.InExpr:
		if c.allConstant(x.List) {
			*dst = Expr{eval: (*Expr).evalInSet, not: x.Not}
			if dst.kids, err = c.kids(x.Child); err == nil {
				dst.set = c.newInSet(x.List)
			}
			break
		}
		// Some item needs per-row evaluation: test the items in order,
		// after the child.
		*dst = Expr{eval: (*Expr).evalInList, not: x.Not, kids: c.take(1 + len(x.List))}
		if err = c.compile(&dst.kids[0], x.Child); err != nil {
			return err
		}
		for i, item := range x.List {
			if err = c.compile(&dst.kids[1+i], item); err != nil {
				return err
			}
		}

	case *sqlparse.KeyFilterExpr:
		// Synthesized by semi-join reduction when the probe-side key set
		// is too large to ship as an IN-list: membership is tested
		// against a shipped key-set summary (a bloom filter). TRUE may be
		// a false positive — the mediator's join re-checks real equality
		// — but FALSE is definitive, so rows it rejects are never needed.
		*dst = Expr{eval: (*Expr).evalKeyFilter, keys: x.Set}
		if dst.kids, err = c.kids(x.Child); err == nil && x.Set == nil {
			err = fmt.Errorf("exec: KEY_FILTER without a key set")
		}

	case *sqlparse.BetweenExpr:
		*dst = Expr{eval: (*Expr).evalBetween, not: x.Not}
		dst.kids, err = c.kids(x.Child, x.Lo, x.Hi)

	case *sqlparse.FuncExpr:
		if x.IsAggregate() {
			return fmt.Errorf("exec: aggregate %s outside Aggregate operator", x.Name)
		}
		return c.compileScalarFunc(dst, x)

	case *sqlparse.CaseExpr:
		n := 2 * len(x.Whens)
		if x.Else != nil {
			n++
		}
		*dst = Expr{eval: (*Expr).evalCase, kids: c.take(n)}
		for i, w := range x.Whens {
			if err = c.compile(&dst.kids[2*i], w.Cond); err != nil {
				return err
			}
			if err = c.compile(&dst.kids[2*i+1], w.Result); err != nil {
				return err
			}
		}
		if x.Else != nil {
			err = c.compile(&dst.kids[n-1], x.Else)
		}

	case *sqlparse.CastExpr:
		*dst = Expr{eval: (*Expr).evalCast, to: x.Type}
		dst.kids, err = c.kids(x.Child)

	default:
		return fmt.Errorf("exec: unsupported expression %T", e)
	}
	return err
}

func (c *compiler) compileBinary(dst *Expr, x *sqlparse.BinaryExpr) error {
	*dst = Expr{op: x.Op}
	switch x.Op {
	case sqlparse.OpAnd, sqlparse.OpOr:
		dst.eval = (*Expr).evalLogic
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		dst.eval = (*Expr).evalCompare
		_, col := x.Left.(*sqlparse.ColumnRef)
		_, lit := x.Right.(*sqlparse.Literal)
		_, param := x.Right.(*sqlparse.Param)
		if col && (lit || param) {
			dst.eval = (*Expr).evalCompareColumn
		}
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv, sqlparse.OpMod:
		dst.eval = (*Expr).evalArith
	case sqlparse.OpConcat:
		dst.eval = (*Expr).evalConcat
	case sqlparse.OpLike:
		dst.eval = (*Expr).evalLike
	}
	var err error
	if dst.kids, err = c.kids(x.Left, x.Right); err != nil {
		return err
	}
	if dst.eval == nil {
		return fmt.Errorf("exec: unsupported binary operator %v", x.Op)
	}
	if x.Op == sqlparse.OpLike {
		// Take a literal pattern's regexp once, from the memo.
		if v, ok := c.constant(x.Right); ok && v.Kind() == datum.KindString {
			dst.eval = (*Expr).evalLikeConst
			dst.re, err = likeCache(v.Str())
		} else if p, ok := x.Right.(*sqlparse.Param); ok && c.slots != nil {
			// A prepared pattern: each execution binds its value, and
			// its regexp with it (see Prepared.Bind).
			*c.slots = append(*c.slots, paramSlot{e: dst, k: p.Index, like: true})
		}
	}
	return err
}

func (c *compiler) compileScalarFunc(dst *Expr, x *sqlparse.FuncExpr) error {
	*dst = Expr{name: x.Name}
	var err error
	if dst.kids, err = c.kids(x.Args...); err != nil {
		return err
	}
	want := -1 // any count
	switch x.Name {
	case "UPPER", "LOWER", "TRIM", "LENGTH":
		dst.eval, want = (*Expr).evalStringFunc, 1
	case "ABS":
		dst.eval, want = (*Expr).evalAbs, 1
	case "SUBSTR":
		dst.eval = (*Expr).evalSubstr
		if len(x.Args) != 2 && len(x.Args) != 3 {
			return fmt.Errorf("exec: SUBSTR takes 2 or 3 arguments, got %d", len(x.Args))
		}
	case "CONCAT":
		dst.eval = (*Expr).evalConcatFunc
	case "COALESCE":
		dst.eval = (*Expr).evalCoalesce
		if len(x.Args) == 0 {
			return fmt.Errorf("exec: COALESCE requires at least one argument")
		}
	default:
		return fmt.Errorf("exec: unknown function %s", x.Name)
	}
	if want >= 0 && len(x.Args) != want {
		return fmt.Errorf("exec: %s takes %d argument(s), got %d", x.Name, want, len(x.Args))
	}
	return nil
}

// Eval evaluates the expression against an input row.
func (e *Expr) Eval(r datum.Row) (datum.Datum, error) { return e.eval(e, r) }

// at reads a column reference's value from r in place, ok=false for any
// other kind (or a row too short). It inlines, where Eval makes a call:
// operators whose per-row loops evaluate keys and projections, mostly bare
// columns, try it first and call Eval only when it fails.
func (e *Expr) at(r datum.Row) (datum.Datum, bool) {
	if i := e.ord - 1; uint(i) < uint(len(r)) {
		return r[i], true
	}
	return datum.Datum{}, false
}

// --- Evaluators, one per kind ---

func (e *Expr) evalLiteral(datum.Row) (datum.Datum, error) { return e.val, nil }

func (e *Expr) evalColumn(r datum.Row) (datum.Datum, error) {
	if v, ok := e.at(r); ok {
		return v, nil
	}
	return datum.Null, e.shortRow()
}

// shortRow is a column reference's error on a row without its column,
// apart so that evalColumn's frame stays small.
func (e *Expr) shortRow() error {
	return fmt.Errorf("exec: row too short for column %s", e.ref.SQL())
}

// evalLogic is three-valued AND (OR), short-circuiting on FALSE (TRUE).
func (e *Expr) evalLogic(r datum.Row) (datum.Datum, error) {
	short := e.op == sqlparse.OpOr
	l, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	if !l.IsNull() && l.Kind() == datum.KindBool && l.Bool() == short {
		return datum.NewBool(short), nil
	}
	rr, err := e.kids[1].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	if !rr.IsNull() && rr.Kind() == datum.KindBool && rr.Bool() == short {
		return datum.NewBool(short), nil
	}
	if l.IsNull() || rr.IsNull() {
		return datum.Null, nil
	}
	if l.Kind() != datum.KindBool || rr.Kind() != datum.KindBool {
		return datum.Null, fmt.Errorf("exec: %s requires BOOL operands", e.op)
	}
	return datum.NewBool(!short), nil
}

func (e *Expr) evalCompare(r datum.Row) (datum.Datum, error) {
	l, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	rr, err := e.kids[1].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	return compare(e.op, l, rr)
}

// evalCompareColumn compares a column reference with a literal, the
// commonest predicate shape (`amount > 120`, `id = 7`): it reads both
// operands in place instead of calling through them.
func (e *Expr) evalCompareColumn(r datum.Row) (datum.Datum, error) {
	l, ok := e.kids[0].at(r)
	if !ok {
		return e.evalCompare(r) // a row too short: the column reports it
	}
	return compare(e.op, l, e.kids[1].val)
}

// compare applies a comparison operator: NULL if either side is.
func compare(op sqlparse.BinOp, l, r datum.Datum) (datum.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return datum.Null, nil
	}
	c, ok := datum.Order(l, r)
	if !ok {
		return datum.Null, fmt.Errorf("exec: cannot compare %s with %s", l.Kind(), r.Kind())
	}
	var out bool
	switch op {
	case sqlparse.OpEq:
		out = c == 0
	case sqlparse.OpNe:
		out = c != 0
	case sqlparse.OpLt:
		out = c < 0
	case sqlparse.OpLe:
		out = c <= 0
	case sqlparse.OpGt:
		out = c > 0
	default:
		out = c >= 0
	}
	return datum.NewBool(out), nil
}

func (e *Expr) evalArith(r datum.Row) (datum.Datum, error) {
	l, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	rr, err := e.kids[1].Eval(r)
	if err != nil || l.IsNull() || rr.IsNull() {
		return datum.Null, err
	}
	return arith(e.op, l, rr)
}

func (e *Expr) evalConcat(r datum.Row) (datum.Datum, error) {
	l, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	rr, err := e.kids[1].Eval(r)
	if err != nil || l.IsNull() || rr.IsNull() {
		return datum.Null, err
	}
	return datum.NewString(l.Display() + rr.Display()), nil
}

// evalLikeConst matches against the pattern compiled once.
func (e *Expr) evalLikeConst(r datum.Row) (datum.Datum, error) {
	l, err := e.kids[0].Eval(r)
	if err != nil || l.IsNull() {
		return datum.Null, err
	}
	if l.Kind() != datum.KindString {
		return datum.Null, fmt.Errorf("exec: LIKE requires STRING, got %s", l.Kind())
	}
	return datum.NewBool(e.re.MatchString(l.Str())), nil
}

// evalLike matches against a pattern evaluated per row, compiled through
// the memo.
func (e *Expr) evalLike(r datum.Row) (datum.Datum, error) {
	l, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	p, err := e.kids[1].Eval(r)
	if err != nil || l.IsNull() || p.IsNull() {
		return datum.Null, err
	}
	if l.Kind() != datum.KindString || p.Kind() != datum.KindString {
		return datum.Null, fmt.Errorf("exec: LIKE requires STRING operands")
	}
	re, err := likeCache(p.Str())
	if err != nil {
		return datum.Null, err
	}
	return datum.NewBool(re.MatchString(l.Str())), nil
}

func (e *Expr) evalNot(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	if v.Kind() != datum.KindBool {
		return datum.Null, fmt.Errorf("exec: NOT requires BOOL, got %s", v.Kind())
	}
	return datum.NewBool(!v.Bool()), nil
}

func (e *Expr) evalNeg(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	switch v.Kind() {
	case datum.KindInt:
		return datum.NewInt(-v.Int()), nil
	case datum.KindFloat:
		return datum.NewFloat(-v.Float()), nil
	default:
		return datum.Null, fmt.Errorf("exec: unary minus requires a number, got %s", v.Kind())
	}
}

func (e *Expr) evalIsNull(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	return datum.NewBool(v.IsNull() != e.not), nil
}

func (e *Expr) evalInSet(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	return e.set.test(v, e.not), nil
}

// evalInList tests the child against items evaluated per row, in order:
// an item after the match is never evaluated.
func (e *Expr) evalInList(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	sawNull := false
	for i := range e.kids[1:] {
		c, err := e.kids[1+i].Eval(r)
		if err != nil {
			return datum.Null, err
		}
		if c.IsNull() {
			sawNull = true
			continue
		}
		if datum.Equal(v, c) {
			return datum.NewBool(!e.not), nil
		}
	}
	if sawNull {
		return datum.Null, nil
	}
	return datum.NewBool(e.not), nil
}

func (e *Expr) evalKeyFilter(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	return datum.NewBool(e.keys.ContainsHash(v.Hash())), nil
}

func (e *Expr) evalBetween(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	l, err := e.kids[1].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	h, err := e.kids[2].Eval(r)
	if err != nil || v.IsNull() || l.IsNull() || h.IsNull() {
		return datum.Null, err
	}
	lo, okLo := datum.Order(v, l)
	hi, okHi := datum.Order(v, h)
	if !okLo || !okHi {
		return datum.Null, fmt.Errorf("exec: BETWEEN over incomparable kinds %s, %s, %s", v.Kind(), l.Kind(), h.Kind())
	}
	in := lo >= 0 && hi <= 0
	return datum.NewBool(in != e.not), nil
}

func (e *Expr) evalCase(r datum.Row) (datum.Datum, error) {
	arms := len(e.kids) / 2
	for i := 0; i < arms; i++ {
		c, err := e.kids[2*i].Eval(r)
		if err != nil {
			return datum.Null, err
		}
		if !c.IsNull() && c.Kind() == datum.KindBool && c.Bool() {
			return e.kids[2*i+1].Eval(r)
		}
	}
	if len(e.kids)%2 == 1 {
		return e.kids[len(e.kids)-1].Eval(r)
	}
	return datum.Null, nil
}

func (e *Expr) evalCast(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil {
		return datum.Null, err
	}
	return castDatum(v, e.to)
}

// evalStringFunc is UPPER, LOWER, TRIM or LENGTH: NULL in, NULL out.
func (e *Expr) evalStringFunc(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	if v.Kind() != datum.KindString {
		return datum.Null, fmt.Errorf("exec: %s requires STRING, got %s", e.name, v.Kind())
	}
	switch e.name {
	case "UPPER":
		return datum.NewString(strings.ToUpper(v.Str())), nil
	case "LOWER":
		return datum.NewString(strings.ToLower(v.Str())), nil
	case "TRIM":
		return datum.NewString(strings.TrimSpace(v.Str())), nil
	default:
		return datum.NewInt(int64(len(v.Str()))), nil
	}
}

func (e *Expr) evalAbs(r datum.Row) (datum.Datum, error) {
	v, err := e.kids[0].Eval(r)
	if err != nil || v.IsNull() {
		return datum.Null, err
	}
	switch v.Kind() {
	case datum.KindInt:
		if v.Int() < 0 {
			return datum.NewInt(-v.Int()), nil
		}
		return v, nil
	case datum.KindFloat:
		return datum.NewFloat(math.Abs(v.Float())), nil
	default:
		return datum.Null, fmt.Errorf("exec: ABS requires a number, got %s", v.Kind())
	}
}

// evalConcatFunc is CONCAT: every argument is evaluated before any is
// rendered, so an error in a later one fails the row; NULLs are skipped.
func (e *Expr) evalConcatFunc(r datum.Row) (datum.Datum, error) {
	var b strings.Builder
	for i := range e.kids {
		v, err := e.kids[i].Eval(r)
		if err != nil {
			return datum.Null, err
		}
		if !v.IsNull() {
			b.WriteString(v.Display())
		}
	}
	return datum.NewString(b.String()), nil
}

func (e *Expr) evalCoalesce(r datum.Row) (datum.Datum, error) {
	for i := range e.kids {
		v, err := e.kids[i].Eval(r)
		if err != nil || !v.IsNull() {
			return v, err
		}
	}
	return datum.Null, nil
}

// evalSubstr is SQL's 1-based SUBSTR(s, start[, length]): every argument
// is evaluated first, and any NULL answers NULL.
func (e *Expr) evalSubstr(r datum.Row) (datum.Datum, error) {
	var buf [3]datum.Datum
	vs := buf[:len(e.kids)]
	for i := range vs {
		v, err := e.kids[i].Eval(r)
		if err != nil {
			return datum.Null, err
		}
		vs[i] = v
	}
	for _, v := range vs {
		if v.IsNull() {
			return datum.Null, nil
		}
	}
	if vs[0].Kind() != datum.KindString {
		return datum.Null, fmt.Errorf("exec: SUBSTR requires STRING, got %s", vs[0].Kind())
	}
	s := vs[0].Str()
	start, ok := vs[1].AsInt()
	if !ok {
		return datum.Null, fmt.Errorf("exec: SUBSTR start must be INT")
	}
	if start < 1 {
		start = 1
	}
	if int(start) > len(s) {
		return datum.NewString(""), nil
	}
	out := s[start-1:]
	if len(vs) == 3 {
		n, ok := vs[2].AsInt()
		if !ok || n < 0 {
			return datum.Null, fmt.Errorf("exec: SUBSTR length must be a non-negative INT")
		}
		if int(n) < len(out) {
			out = out[:n]
		}
	}
	return datum.NewString(out), nil
}

// inSet is a constant IN-list compiled to a hashed set: the non-NULL
// literal values indexed by hash, so a membership test costs one hash of
// the probed value however long the list is (up to inSetScanMax literals
// need no index and get none). A semi-join's shipped key list is
// evaluated this way at the source.
type inSet struct {
	datumSet
	hasNull bool // the list holds a NULL literal: a miss is NULL, not FALSE
}

// inSetScanMax is the longest list whose literals are compared one by one
// instead of through the index: one or two datum.Equal calls cost less
// than hashing the probed value. BenchmarkInList over 12 000 rows: 0.75 ms
// scanned against 0.97 ms hashed at one key, 0.85 against 0.97 at two,
// 1.1 against 1.0 at four — and the point lookups that ship a one-key
// list are the engine's most frequent semi-joins.
const inSetScanMax = 2

// newInSet builds the set of an all-constant list, the set, its values and
// its index drawn from c.s (the heap when it is nil).
func (c *compiler) newInSet(list []sqlparse.Expr) *inSet {
	set := New(c.s, inSet{})
	set.vals = Make[datum.Datum](c.s, len(list))[:0]
	for _, item := range list {
		if v, _ := c.constant(item); v.IsNull() {
			set.hasNull = true
		} else {
			set.vals = append(set.vals, v)
		}
	}
	if len(set.vals) > inSetScanMax {
		set.ix = newKeyIndex(c.s, len(set.vals))
		for _, v := range set.vals {
			set.ix.add(v.Hash())
		}
	}
	return set
}

// test answers `v [NOT] IN (set)` for a non-NULL v with SQL's three-valued
// result: a hit is TRUE, and a miss is NULL when the list holds a NULL (it
// might have been the match) and FALSE otherwise.
func (s *inSet) test(v datum.Datum, not bool) datum.Datum {
	hit := false
	if len(s.vals) > inSetScanMax {
		hit = s.contains(v, v.Hash())
	} else {
		for i := range s.vals {
			if datum.Equal(v, s.vals[i]) {
				hit = true
				break
			}
		}
	}
	switch {
	case hit:
		return datum.NewBool(!not)
	case s.hasNull:
		return datum.Null
	default:
		return datum.NewBool(not)
	}
}

// castDatum implements CAST semantics, which are more permissive than
// datum.Coerce: strings parse into numbers, numbers truncate, anything
// renders to string.
func castDatum(v datum.Datum, target datum.Kind) (datum.Datum, error) {
	if v.IsNull() || v.Kind() == target {
		return v, nil
	}
	switch target {
	case datum.KindString:
		return datum.NewString(v.Display()), nil
	case datum.KindInt:
		switch v.Kind() {
		case datum.KindFloat:
			return datum.NewInt(int64(v.Float())), nil
		case datum.KindString:
			var i int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.Str()), "%d", &i); err != nil {
				return datum.Null, fmt.Errorf("exec: cannot cast %q to INT", v.Str())
			}
			return datum.NewInt(i), nil
		case datum.KindBool:
			if v.Bool() {
				return datum.NewInt(1), nil
			}
			return datum.NewInt(0), nil
		}
	case datum.KindFloat:
		switch v.Kind() {
		case datum.KindInt:
			return datum.NewFloat(float64(v.Int())), nil
		case datum.KindString:
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v.Str()), "%g", &f); err != nil {
				return datum.Null, fmt.Errorf("exec: cannot cast %q to FLOAT", v.Str())
			}
			return datum.NewFloat(f), nil
		}
	case datum.KindBool:
		if v.Kind() == datum.KindString {
			switch strings.ToLower(strings.TrimSpace(v.Str())) {
			case "true", "t", "1":
				return datum.NewBool(true), nil
			case "false", "f", "0":
				return datum.NewBool(false), nil
			}
		}
	}
	return datum.Null, fmt.Errorf("exec: cannot cast %s to %s", v.Kind(), target)
}

func arith(op sqlparse.BinOp, l, r datum.Datum) (datum.Datum, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return datum.Null, fmt.Errorf("exec: %s requires numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	bothInt := l.Kind() == datum.KindInt && r.Kind() == datum.KindInt
	switch op {
	case sqlparse.OpAdd:
		if bothInt {
			return datum.NewInt(l.Int() + r.Int()), nil
		}
		return datum.NewFloat(lf + rf), nil
	case sqlparse.OpSub:
		if bothInt {
			return datum.NewInt(l.Int() - r.Int()), nil
		}
		return datum.NewFloat(lf - rf), nil
	case sqlparse.OpMul:
		if bothInt {
			return datum.NewInt(l.Int() * r.Int()), nil
		}
		return datum.NewFloat(lf * rf), nil
	case sqlparse.OpDiv:
		if rf == 0 {
			return datum.Null, fmt.Errorf("exec: division by zero")
		}
		return datum.NewFloat(lf / rf), nil
	case sqlparse.OpMod:
		if !bothInt {
			return datum.Null, fmt.Errorf("exec: %% requires INT operands")
		}
		if r.Int() == 0 {
			return datum.Null, fmt.Errorf("exec: modulo by zero")
		}
		return datum.NewInt(l.Int() % r.Int()), nil
	}
	return datum.Null, fmt.Errorf("exec: unreachable arithmetic op %v", op)
}

// likeRegexp converts a SQL LIKE pattern to a compiled regexp: % matches
// any sequence, _ matches one character; everything else is literal.
func likeRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

// likeEntry is one memoized LIKE compilation (pattern -> regexp or error).
type likeEntry struct {
	re  *regexp.Regexp
	err error
}

// likeMap memoizes LIKE patterns, literal and dynamic alike. A sync.Map
// (instead of a mutex-guarded map) keeps the hot read path lock-free:
// exchange workers evaluating LIKE concurrently would otherwise serialize on
// every row. likeSize counts its entries; past likeMemoCap the memo is
// cleared, so a stream of distinct patterns cannot grow it without bound.
var (
	likeMap  sync.Map // string -> likeEntry
	likeSize atomic.Int64
)

const likeMemoCap = 1024

// likeCache compiles a LIKE pattern through the memo.
func likeCache(pattern string) (*regexp.Regexp, error) {
	if v, ok := likeMap.Load(pattern); ok {
		e := v.(likeEntry)
		return e.re, e.err
	}
	re, err := likeRegexp(pattern)
	v, loaded := likeMap.LoadOrStore(pattern, likeEntry{re: re, err: err})
	if !loaded && likeSize.Add(1) > likeMemoCap {
		likeSize.Store(0)
		likeMap.Range(func(k, _ any) bool {
			likeMap.Delete(k)
			return true
		})
	}
	e := v.(likeEntry)
	return e.re, e.err
}

// EvalPredicate runs a compiled predicate and reports whether the row
// passes (NULL and FALSE both reject).
func EvalPredicate(f *Expr, r datum.Row) (bool, error) {
	v, err := f.Eval(r)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != datum.KindBool {
		return false, fmt.Errorf("exec: predicate evaluated to %s, not BOOL", v.Kind())
	}
	return v.Bool(), nil
}

// --- Batched entry points ---
//
// These amortize call dispatch over whole batches and let callers reuse
// scratch storage across batches instead of allocating per row.

// FilterBatch appends the rows of in satisfying pred to dst (pass dst[:0]
// to reuse its storage) and returns it. NULL and FALSE both reject.
func FilterBatch(pred *Expr, in Batch, dst Batch) (Batch, error) {
	for _, r := range in {
		ok, err := EvalPredicate(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// projectBatch evaluates exprs over every row of in, appending the output
// rows to dst. Output row storage comes from one allocation per batch,
// drawn from the query scratch (heap when s is nil), instead of one per
// row: the rows live exactly as long as the query, which is all
// downstream retention ever needs.
func projectBatch(s *Scratch, exprs []Expr, in Batch, dst Batch) (Batch, error) {
	arena := Make[datum.Datum](s, len(exprs)*len(in))
	for _, r := range in {
		row := arena[:len(exprs):len(exprs)]
		arena = arena[len(exprs):]
		for i := range exprs {
			v, ok := exprs[i].at(r)
			if !ok {
				var err error
				if v, err = exprs[i].Eval(r); err != nil {
					return nil, err
				}
			}
			row[i] = v
		}
		dst = append(dst, datum.Row(row))
	}
	return dst, nil
}

package sqlparse

import (
	"fmt"
	"strconv"

	"repro/internal/arena"
	"repro/internal/datum"
)

// ParseError describes a syntax error with its 1-based line:column
// position and the offending token.
type ParseError struct {
	Pos   int    // byte offset in the input
	Line  int    // 1-based line number
	Col   int    // 1-based column (byte) number within the line
	Token string // text of the offending token ("" at end of input)
	Msg   string
}

func (e *ParseError) Error() string {
	at := "end of input"
	if e.Token != "" {
		at = strconv.Quote(e.Token)
	}
	return fmt.Sprintf("sql: parse error at line %d:%d near %s: %s", e.Line, e.Col, at, e.Msg)
}

// Parse parses one SELECT statement and requires the whole input to be
// consumed. The returned AST is heap-allocated and safe to retain
// indefinitely (view definitions, cached plan templates); only the
// parser's scratch buffers come from the arena pool.
func Parse(input string) (*Select, error) {
	scratch := GetArena()
	defer PutArena(scratch)
	return parseStatement(scratch, nil, input)
}

// ParseArena parses like Parse but allocates every AST node and list out
// of a. The result is only valid until a is Reset and must not be
// retained past that point — it is meant for the per-query hot path,
// where the engine releases the arena on every exit.
func ParseArena(a *Arena, input string) (*Select, error) {
	return parseStatement(a, a, input)
}

// ParseLexed parses like ParseArena the statement that a.LexKey lexed
// from input last, without lexing it again.
func ParseLexed(a *Arena, input string) (*Select, error) {
	return parseTokens(a, a, input)
}

func parseStatement(scratch, nodes *Arena, input string) (*Select, error) {
	toks, err := lexInto(input, scratch.toks[:0])
	if err != nil {
		return nil, err
	}
	scratch.toks = toks
	return parseTokens(scratch, nodes, input)
}

// parseTokens parses the tokens in scratch's buffer, lexed from input.
func parseTokens(scratch, nodes *Arena, input string) (*Select, error) {
	scratch.origins = scratch.origins[:0]
	p := parser{input: input, toks: scratch.toks, scratch: scratch, nodes: nodes}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after end of statement", p.peek().Text)
	}
	return sel, nil
}

// ParseExpr parses a standalone scalar expression (used by view definitions
// and tests). Like Parse, the result is retain-safe.
func ParseExpr(input string) (Expr, error) {
	scratch := GetArena()
	defer PutArena(scratch)
	toks, err := lexInto(input, scratch.toks[:0])
	if err != nil {
		return nil, err
	}
	scratch.toks = toks
	p := parser{input: input, toks: toks, scratch: scratch}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after expression", p.peek().Text)
	}
	return e, nil
}

type parser struct {
	input string
	toks  []Token
	pos   int
	// nextParam auto-numbers `?` placeholders left to right (1-based).
	nextParam int
	// scratch holds the list-building stacks (never nil); nodes is the
	// arena AST nodes are allocated from, or nil for heap allocation.
	scratch *Arena
	nodes   *Arena
}

func (p *parser) peek() Token   { return p.toks[p.pos] }
func (p *parser) atEOF() bool   { return p.peek().Kind == TokEOF }
func (p *parser) next() Token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(m int) { p.pos = m }

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	line, col := lineCol(p.input, t.Pos)
	return &ParseError{
		Pos:   t.Pos,
		Line:  line,
		Col:   col,
		Token: displayToken(t),
		Msg:   fmt.Sprintf(format, args...),
	}
}

// upperASCII upper-cases ASCII letters only. strings.ToUpper would map
// bytes that are not valid UTF-8 (Latin-1 identifiers the lexer accepts)
// to U+FFFD, corrupting the round-trip; function-name matching only ever
// needs ASCII folding.
func upperASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'a' && c <= 'z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if c := b[j]; c >= 'a' && c <= 'z' {
					b[j] = c - ('a' - 'A')
				}
			}
			return string(b)
		}
	}
	return s
}

// displayToken renders a token for error messages.
func displayToken(t Token) string {
	switch t.Kind {
	case TokEOF:
		return ""
	case TokParam:
		if t.Text == "" {
			return "?"
		}
		return "$" + t.Text
	case TokString:
		return "'" + t.Text + "'"
	}
	return t.Text
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().Text)
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, found %q", sym, p.peek().Text)
	}
	return nil
}

// parseIdent consumes an identifier; non-reserved use of a keyword is not
// supported to keep the grammar predictable.
func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := New(p.nodes, Select{})
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}

	// Select list.
	itemMark := len(p.scratch.itemStk)
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		p.scratch.itemStk = append(p.scratch.itemStk, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	sel.Items = arena.Copy(p.nodes.set(), p.scratch.itemStk[itemMark:])
	p.scratch.itemStk = p.scratch.itemStk[:itemMark]

	if p.acceptKeyword("FROM") {
		refMark := len(p.scratch.refStk)
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			p.scratch.refStk = append(p.scratch.refStk, tr)
			if !p.acceptSymbol(",") {
				break
			}
		}
		sel.From = arena.Copy(p.nodes.set(), p.scratch.refStk[refMark:])
		p.scratch.refStk = p.scratch.refStk[:refMark]
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		exprMark := len(p.scratch.exprStk)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.scratch.exprStk = append(p.scratch.exprStk, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		sel.GroupBy = arena.Copy(p.nodes.set(), p.scratch.exprStk[exprMark:])
		p.scratch.exprStk = p.scratch.exprStk[:exprMark]
	}

	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		orderMark := len(p.scratch.orderStk)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			p.scratch.orderStk = append(p.scratch.orderStk, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
		sel.OrderBy = arena.Copy(p.nodes.set(), p.scratch.orderStk[orderMark:])
		p.scratch.orderStk = p.scratch.orderStk[:orderMark]
	}

	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}

	if p.acceptKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errf("only UNION ALL is supported")
		}
		rest, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.UnionAll = rest
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// `*`
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// `ident.*`
	if t := p.peek(); t.Kind == TokIdent {
		mark := p.save()
		name, _ := p.parseIdent()
		if p.acceptSymbol(".") && p.acceptSymbol("*") {
			return SelectItem{Star: true, TableQual: name}, nil
		}
		p.restore(mark)
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		// Bare alias.
		p.pos++
		item.Alias = t.Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.acceptKeyword("JOIN"):
			jt = JoinInner
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = JoinInner
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = New(p.nodes, Join{Type: jt, Left: left, Right: right, On: cond})
	}
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.acceptSymbol("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.parseIdent()
		if err != nil {
			return nil, p.errf("derived table requires an alias")
		}
		return New(p.nodes, SubqueryTable{Query: sub, Alias: alias}), nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	bt := New(p.nodes, BaseTable{Name: name})
	if p.acceptSymbol(".") {
		second, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		bt.Source = name
		bt.Name = second
	}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		bt.Alias = t.Text
	}
	return bt, nil
}

// Expression grammar. Binding powers encode the precedence ladder of the
// old recursive-descent cascade:
//
//	OR(10) < AND(20) < prefix NOT(21) < predicates(30, non-chaining:
//	comparison, IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE)
//	< additive + - ||(50) < multiplicative * / %(60) < prefix -(70)
//
// Predicates don't chain (`a = b = c` is rejected) and their operands sit
// one level up, so `a = b AND c` parses as `(a = b) AND c`. Prefix NOT
// binds looser than predicates (`NOT a = b` is `NOT (a = b)`) but tighter
// than AND, and is only legal where the old notExpr production allowed it
// (`a = NOT b` stays an error).
const (
	bpOr   = 10
	bpAnd  = 20
	bpNot  = 21 // right binding power of prefix NOT
	bpPred = 30
	bpAdd  = 50
	bpMul  = 60
	bpNeg  = 70 // right binding power of prefix minus
)

func (p *parser) parseExpr() (Expr, error) { return p.parseExprBP(0) }

// infixBP returns the binding power of the infix operator starting at the
// current token, or 0 when the token cannot continue an expression.
func (p *parser) infixBP() int {
	t := p.peek()
	switch t.Kind {
	case TokKeyword:
		switch t.Text {
		case "OR":
			return bpOr
		case "AND":
			return bpAnd
		case "IS", "IN", "BETWEEN", "LIKE":
			return bpPred
		case "NOT":
			// NOT IN / NOT BETWEEN / NOT LIKE via one-token lookahead
			// (the EOF sentinel makes p.pos+1 always in range here).
			if nt := p.toks[p.pos+1]; nt.Kind == TokKeyword &&
				(nt.Text == "IN" || nt.Text == "BETWEEN" || nt.Text == "LIKE") {
				return bpPred
			}
		}
	case TokSymbol:
		switch t.Text {
		case "=", "<>", "<", "<=", ">", ">=":
			return bpPred
		case "+", "-", "||":
			return bpAdd
		case "*", "/", "%":
			return bpMul
		}
	}
	return 0
}

func (p *parser) parseExprBP(min int) (Expr, error) {
	left, err := p.parsePrefix(min)
	if err != nil {
		return nil, err
	}
	predDone := false
	for {
		bp := p.infixBP()
		if bp == 0 || bp <= min || (predDone && bp >= bpPred) {
			return left, nil
		}
		left, err = p.parseInfix(left)
		if err != nil {
			return nil, err
		}
		if bp == bpPred {
			predDone = true
		}
	}
}

// parsePrefix parses a prefix operator or primary expression (the "nud").
// min gates where prefix NOT is legal.
func (p *parser) parsePrefix(min int) (Expr, error) {
	t := p.peek()
	if t.Kind == TokKeyword && t.Text == "NOT" {
		if min > bpNot {
			return nil, p.errf("unexpected keyword %q in expression", t.Text)
		}
		p.pos++
		child, err := p.parseExprBP(bpNot)
		if err != nil {
			return nil, err
		}
		return New(p.nodes, UnaryExpr{Op: "NOT", Child: child}), nil
	}
	if t.Kind == TokSymbol {
		switch t.Text {
		case "-":
			p.pos++
			child, err := p.parsePrefix(bpNeg)
			if err != nil {
				return nil, err
			}
			// Fold negative literals immediately.
			if lit, ok := child.(*Literal); ok {
				if v, ok := negate(lit.Value); ok {
					return p.negated(lit, v), nil
				}
			}
			return New(p.nodes, UnaryExpr{Op: "-", Child: child}), nil
		case "+":
			p.pos++
			return p.parsePrefix(bpNeg)
		}
	}
	return p.parsePrimary()
}

// parseInfix consumes the operator at the current token (already vetted
// by infixBP) plus its right-hand side and combines it with left.
func (p *parser) parseInfix(left Expr) (Expr, error) {
	t := p.peek()
	if t.Kind == TokKeyword {
		not := false
		kw := t.Text
		if kw == "NOT" {
			p.pos++
			not = true
			kw = p.peek().Text // IN, BETWEEN or LIKE per infixBP lookahead
		}
		switch kw {
		case "OR":
			p.pos++
			right, err := p.parseExprBP(bpOr)
			if err != nil {
				return nil, err
			}
			return New(p.nodes, BinaryExpr{Op: OpOr, Left: left, Right: right}), nil
		case "AND":
			p.pos++
			right, err := p.parseExprBP(bpAnd)
			if err != nil {
				return nil, err
			}
			return New(p.nodes, BinaryExpr{Op: OpAnd, Left: left, Right: right}), nil
		case "IS":
			p.pos++
			neg := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return New(p.nodes, IsNullExpr{Child: left, Not: neg}), nil
		case "IN":
			p.pos++
			return p.parseInTail(left, not)
		case "BETWEEN":
			p.pos++
			lo, err := p.parseExprBP(bpPred)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseExprBP(bpPred)
			if err != nil {
				return nil, err
			}
			return New(p.nodes, BetweenExpr{Child: left, Lo: lo, Hi: hi, Not: not}), nil
		case "LIKE":
			p.pos++
			pat, err := p.parseExprBP(bpPred)
			if err != nil {
				return nil, err
			}
			like := Expr(New(p.nodes, BinaryExpr{Op: OpLike, Left: left, Right: pat}))
			if not {
				like = New(p.nodes, UnaryExpr{Op: "NOT", Child: like})
			}
			return like, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", kw)
	}
	var op BinOp
	var rbp int
	switch t.Text {
	case "=":
		op, rbp = OpEq, bpPred
	case "<>":
		op, rbp = OpNe, bpPred
	case "<":
		op, rbp = OpLt, bpPred
	case "<=":
		op, rbp = OpLe, bpPred
	case ">":
		op, rbp = OpGt, bpPred
	case ">=":
		op, rbp = OpGe, bpPred
	case "+":
		op, rbp = OpAdd, bpAdd
	case "-":
		op, rbp = OpSub, bpAdd
	case "||":
		op, rbp = OpConcat, bpAdd
	case "*":
		op, rbp = OpMul, bpMul
	case "/":
		op, rbp = OpDiv, bpMul
	case "%":
		op, rbp = OpMod, bpMul
	default:
		return nil, p.errf("unexpected token %q", t.Text)
	}
	p.pos++
	right, err := p.parseExprBP(rbp)
	if err != nil {
		return nil, err
	}
	return New(p.nodes, BinaryExpr{Op: op, Left: left, Right: right}), nil
}

// parseInTail parses the parenthesized tail of `expr [NOT] IN ...`: either
// a value list or a subquery.
func (p *parser) parseInTail(left Expr, not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return New(p.nodes, InSubquery{Child: left, Query: sub, Not: not}), nil
	}
	exprMark := len(p.scratch.exprStk)
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.scratch.exprStk = append(p.scratch.exprStk, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	list := arena.Copy(p.nodes.set(), p.scratch.exprStk[exprMark:])
	p.scratch.exprStk = p.scratch.exprStk[:exprMark]
	return New(p.nodes, InExpr{Child: left, List: list, Not: not}), nil
}

var kindNames = map[string]datum.Kind{
	"INT": datum.KindInt, "FLOAT": datum.KindFloat,
	"STRING": datum.KindString, "BOOL": datum.KindBool, "TIME": datum.KindTime,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt, TokFloat, TokString:
		v, ok := literalValue(t)
		if !ok { // only a number that does not fit fails
			kind := "integer"
			if t.Kind == TokFloat {
				kind = "float"
			}
			return nil, p.errf("bad %s literal %q", kind, t.Text)
		}
		p.pos++
		return p.literal(v, p.pos-1, false), nil
	case TokParam:
		p.pos++
		if t.Text == "" { // `?`: auto-number
			p.nextParam++
			return New(p.nodes, Param{Index: p.nextParam}), nil
		}
		idx, err := strconv.Atoi(t.Text)
		if err != nil || idx < 1 {
			p.pos--
			return nil, p.errf("bad parameter placeholder $%s", t.Text)
		}
		return New(p.nodes, Param{Index: idx}), nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return p.literal(datum.Null, keywordTok, false), nil
		case "TRUE":
			p.pos++
			return p.literal(datum.NewBool(true), keywordTok, false), nil
		case "FALSE":
			p.pos++
			return p.literal(datum.NewBool(false), keywordTok, false), nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			return p.parseFuncCall(t.Text)
		case "CASE":
			p.pos++
			return p.parseCase()
		case "CAST":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			child, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			kt := p.peek()
			kind, ok := kindNames[kt.Text]
			if !ok {
				return nil, p.errf("unknown type %q in CAST", kt.Text)
			}
			p.pos++
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return New(p.nodes, CastExpr{Child: child, Type: kind}), nil
		case "EXISTS":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return New(p.nodes, ExistsExpr{Query: sub}), nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)
	case TokIdent:
		p.pos++
		// Function call?
		if t2 := p.peek(); t2.Kind == TokSymbol && t2.Text == "(" {
			return p.parseFuncCall(upperASCII(t.Text))
		}
		// Qualified column? Either tbl.col or source.tbl.col; in the
		// three-part form the qualifier stored is "source.tbl".
		if p.acceptSymbol(".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if p.acceptSymbol(".") {
				col2, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				return New(p.nodes, ColumnRef{Table: t.Text + "." + col, Column: col2}), nil
			}
			return New(p.nodes, ColumnRef{Table: t.Text, Column: col}), nil
		}
		return New(p.nodes, ColumnRef{Column: t.Text}), nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.Text)
}

// parseFuncCall parses the argument list of a function whose (upper-cased)
// name is given; the opening paren has not been consumed.
func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	f := New(p.nodes, FuncExpr{Name: name})
	if p.acceptSymbol("*") {
		if name != "COUNT" {
			p.pos-- // rewind so the error points at the star, not past it
			return nil, p.errf("%s(*) is not supported", name)
		}
		f.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKeyword("DISTINCT") {
		f.Distinct = true
	}
	if !p.acceptSymbol(")") {
		exprMark := len(p.scratch.exprStk)
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.scratch.exprStk = append(p.scratch.exprStk, a)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		f.Args = arena.Copy(p.nodes.set(), p.scratch.exprStk[exprMark:])
		p.scratch.exprStk = p.scratch.exprStk[:exprMark]
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	c := New(p.nodes, CaseExpr{})
	whenMark := len(p.scratch.whenStk)
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.scratch.whenStk = append(p.scratch.whenStk, CaseWhen{Cond: cond, Result: res})
	}
	if len(p.scratch.whenStk) == whenMark {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	c.Whens = arena.Copy(p.nodes.set(), p.scratch.whenStk[whenMark:])
	p.scratch.whenStk = p.scratch.whenStk[:whenMark]
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

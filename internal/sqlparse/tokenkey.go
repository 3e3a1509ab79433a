package sqlparse

import (
	"encoding/binary"
	"strconv"

	"repro/internal/datum"
)

// A token key names a statement's shape without parsing it: the token
// stream with every number and string literal masked by its kind. Two
// statements with one token key parse to one AST but for the values of
// their literals, so the plan cache can find a plan by the token key
// alone, and bind the literals straight from the tokens. The cache stores
// each plan with the token key of the statement that compiled it and a
// literal map: for each parameter ExtractParamsIn made, the token it came
// from (and whether a unary minus was folded into it) or the TRUE, FALSE
// or NULL it fixes; and for each literal token left inline, the text it
// must equal.
//
// The key's encoding is one byte a token, but for an identifier:
//   - a keyword is 0x80 plus its index in keywordList;
//   - a one-byte symbol is itself, and a two-byte one a code below 0x20;
//   - a literal is its kind's code;
//   - an identifier is keyIdent, its length as a uvarint, and its bytes.
//
// So the key is injective: one key decodes to one token stream, literal
// values aside.
const (
	keyIdent byte = 0x01 + iota
	keyInt
	keyFloat
	keyString
	keyNe // <>, and != as the lexer spells it
	keyLe
	keyGe
	keyConcat
	keyKeyword byte = 0x80
)

// appendTokenKey appends the token key of toks to b. It reports false,
// with b as far as it got, when toks hold a placeholder: such a statement
// binds its own parameters and does not go through the cache by value.
func appendTokenKey(b []byte, toks []Token) ([]byte, bool) {
	for _, t := range toks {
		switch t.Kind {
		case TokEOF:
		case TokIdent:
			b = append(b, keyIdent)
			b = binary.AppendUvarint(b, uint64(len(t.Text)))
			b = append(b, t.Text...)
		case TokKeyword:
			i, ok := keywordIndex(t.Text)
			if !ok {
				return b, false
			}
			b = append(b, keyKeyword|i)
		case TokInt:
			b = append(b, keyInt)
		case TokFloat:
			b = append(b, keyFloat)
		case TokString:
			b = append(b, keyString)
		case TokSymbol:
			switch t.Text {
			case "<>":
				b = append(b, keyNe)
			case "<=":
				b = append(b, keyLe)
			case ">=":
				b = append(b, keyGe)
			case "||":
				b = append(b, keyConcat)
			default:
				b = append(b, t.Text[0])
			}
		default: // TokParam
			return b, false
		}
	}
	return b, true
}

// LexKey lexes input into a's token buffer and renders its token key
// into a's key buffer; both live until the next LexKey, parse or Reset
// of a. ok is false when the statement holds a placeholder. A lexical
// error is the one ParseArena would report.
func (a *Arena) LexKey(input string) (key []byte, ok bool, err error) {
	toks, err := lexInto(input, a.toks[:0])
	if err != nil {
		return nil, false, err
	}
	a.toks = toks
	a.keyBuf, ok = appendTokenKey(a.keyBuf[:0], toks)
	return a.keyBuf, ok, nil
}

// keywordTok is the origin token of a TRUE, FALSE or NULL literal: its
// value is fixed by the keyword, which the token key spells out.
// unknownTok is the origin of a literal whose operand's origin was lost.
const (
	keywordTok = -1
	unknownTok = -2
)

// litOrigin is where one Literal of the last parse came from: the index
// of its literal token (keywordTok for a keyword), and whether an odd
// number of unary minuses was folded into it.
type litOrigin struct {
	lit *Literal
	tok int32
	neg bool
}

// literal draws a Literal from the parser's arena and records its origin.
func (p *parser) literal(v datum.Datum, tok int, neg bool) *Literal {
	lit := New(p.nodes, Literal{Value: v})
	p.scratch.origins = append(p.scratch.origins, litOrigin{lit: lit, tok: int32(tok), neg: neg})
	return lit
}

// negated draws the Literal that folds a unary minus into lit, whose
// value negated is v, with lit's origin and one more minus.
func (p *parser) negated(lit *Literal, v datum.Datum) *Literal {
	o := litOrigin{tok: unknownTok}
	if i := p.scratch.originOf(lit, len(p.scratch.origins)-1); i >= 0 {
		o = p.scratch.origins[i]
	}
	return p.literal(v, int(o.tok), !o.neg)
}

// originOf returns the index of lit's origin in a.origins, -1 when the
// last parse did not make lit. It searches from the index from on,
// wrapping around: a folded literal's operand is the last origin, and
// ExtractParamsIn visits literals in token order, each just after the
// one before.
func (a *Arena) originOf(lit *Literal, from int) int {
	n := len(a.origins)
	for i := range n {
		if j := (from + i) % n; a.origins[j].lit == lit {
			return j
		}
	}
	return -1
}

// literalValue is the value of a literal token, as the parser reads it.
// It fails only for a number that does not fit.
func literalValue(t Token) (datum.Datum, bool) {
	switch t.Kind {
	case TokInt:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		return datum.NewInt(v), err == nil
	case TokFloat:
		v, err := strconv.ParseFloat(t.Text, 64)
		return datum.NewFloat(v), err == nil
	case TokString:
		return datum.NewString(t.Text), true
	}
	return datum.Null, false
}

// negate folds a unary minus into a numeric literal's value.
func negate(v datum.Datum) (datum.Datum, bool) {
	switch v.Kind() {
	case datum.KindInt:
		return datum.NewInt(-v.Int()), true
	case datum.KindFloat:
		return datum.NewFloat(-v.Float()), true
	}
	return v, false
}

// The literal map's encoding: the parameter count as a uvarint, then one
// entry a parameter — a code, and for litTok and litTokNeg the token's
// index as a uvarint — then, for each literal token no parameter binds,
// its index, its text's length and its text.
const (
	litTok byte = iota
	litTokNeg
	litTrue
	litFalse
	litNull
)

// CacheKeys is what the plan cache keeps of one normalized statement:
// three parts of one string, so a plan's keys cost one allocation.
type CacheKeys struct {
	// SQL is the normalized statement text, the plan's cache key.
	SQL string
	// Tokens is the token key of the text the statement was parsed
	// from, and Lits its literal map; both are empty when a parameter's
	// origin is unknown.
	Tokens, Lits string
}

// CacheKeys renders the keys of sel, which ExtractParamsIn has just
// normalized, from the tokens it was parsed from and the literal map
// that ExtractParamsIn recorded.
func (a *Arena) CacheKeys(sel *Select) CacheKeys {
	b := sel.appendSQL(a.sqlBuf[:0])
	nSQL := len(b)
	b, ok := appendTokenKey(b, a.toks)
	nTok := len(b)
	if ok {
		b, ok = a.appendLitMap(b)
	}
	if !ok {
		b = b[:nSQL]
		nTok = nSQL
	}
	s := string(b)
	a.sqlBuf = b[:0]
	return CacheKeys{SQL: s[:nSQL], Tokens: s[nSQL:nTok], Lits: s[nTok:]}
}

// appendLitMap appends the literal map of the last ExtractParamsIn to b,
// or reports false when a parameter's origin is unknown.
func (a *Arena) appendLitMap(b []byte) ([]byte, bool) {
	bound := a.marks[:0]
	for range a.toks {
		bound = append(bound, false)
	}
	a.marks = bound
	b = binary.AppendUvarint(b, uint64(len(a.binds)))
	for _, i := range a.binds {
		if i < 0 || a.origins[i].tok == unknownTok {
			return b, false
		}
		o := a.origins[i]
		if o.tok >= 0 {
			bound[o.tok] = true
			code := litTok
			if o.neg {
				code = litTokNeg
			}
			b = append(b, code)
			b = binary.AppendUvarint(b, uint64(o.tok))
			continue
		}
		switch v := o.lit.Value; {
		case v.IsNull():
			b = append(b, litNull)
		case v.Bool():
			b = append(b, litTrue)
		default:
			b = append(b, litFalse)
		}
	}
	for i, t := range a.toks {
		if isLiteral(t.Kind) && !bound[i] {
			b = binary.AppendUvarint(b, uint64(i))
			b = binary.AppendUvarint(b, uint64(len(t.Text)))
			b = append(b, t.Text...)
		}
	}
	return b, true
}

func isLiteral(k TokenKind) bool { return k == TokInt || k == TokFloat || k == TokString }

// BindLiterals returns the parameter values that the literal map lits,
// stored with a token key equal to the one LexKey rendered last, binds
// from a's tokens: the values ExtractParamsIn would extract from a parse
// of the statement. ok is false — fall back to the parse — when a literal
// lits leaves inline differs from the text it was compiled with, or a
// number does not fit. The values share a's lifetime. Equal token keys
// mean equal token streams but for literal values, so every token index
// the map holds is in range and names a literal.
func (a *Arena) BindLiterals(lits string) ([]datum.Datum, bool) {
	values := a.valStk[:0]
	defer func() { a.valStk = values[:0] }()
	n, i := uvarint(lits, 0)
	for range n {
		code := lits[i]
		i++
		var v datum.Datum
		switch code {
		case litTrue:
			v = datum.NewBool(true)
		case litFalse:
			v = datum.NewBool(false)
		case litNull:
			v = datum.Null
		default:
			var tok int
			tok, i = uvarint(lits, i)
			var ok bool
			if v, ok = literalValue(a.toks[tok]); !ok {
				return nil, false
			}
			if code == litTokNeg {
				if v, ok = negate(v); !ok {
					return nil, false
				}
			}
		}
		values = append(values, v)
	}
	for i < len(lits) {
		var tok, size int
		tok, i = uvarint(lits, i)
		size, i = uvarint(lits, i)
		if a.toks[tok].Text != lits[i:i+size] {
			return nil, false
		}
		i += size
	}
	return values, true
}

// uvarint decodes the uvarint binary.AppendUvarint wrote at s[i:] and
// returns it with the index after it.
func uvarint(s string, i int) (int, int) {
	v := 0
	for shift := 0; ; shift += 7 {
		c := s[i]
		i++
		v |= int(c&0x7f) << shift
		if c < 0x80 {
			return v, i
		}
	}
}

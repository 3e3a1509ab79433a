// Package sqlparse implements the SQL front end: a hand-rolled byte-scan
// lexer, an AST, a Pratt (binding-power) parser for the dialect described
// in DESIGN.md §5, and a deparser that renders plan fragments back to SQL
// text for pushdown into wrapped sources.
//
// The front end is built for the per-request hot path: the lexer scans
// bytes through a table-driven character classifier (no strings/unicode
// calls in the loop), keywords resolve through a length-bucketed
// case-insensitive match that returns canonical constant strings, and the
// parser allocates AST nodes out of a reusable Arena — a warm parse is
// near-zero heap allocations.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSymbol // punctuation and operators: ( ) , . * + - / = <> < <= > >= ||
	TokParam  // a placeholder: `?` (Text "") or `$n` (Text holds the digits)
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
}

// Character classes for the byte-scan loop. The table is built once at
// init; the hot loop indexes it instead of calling unicode predicates.
const (
	clSpace = 1 << iota
	clDigit
	clIdentStart
	clIdentPart
)

var charClass [256]byte

func init() {
	for c := 'a'; c <= 'z'; c++ {
		charClass[c] |= clIdentStart | clIdentPart
		charClass[c-32] |= clIdentStart | clIdentPart
	}
	charClass['_'] |= clIdentStart | clIdentPart
	for c := '0'; c <= '9'; c++ {
		charClass[c] |= clDigit | clIdentPart
	}
	charClass['$'] |= clIdentPart
	for _, c := range []byte{' ', '\t', '\n', '\r'} {
		charClass[c] |= clSpace
	}
	// High bytes: match the historical lexer, which treated any byte whose
	// Latin-1 codepoint is a letter as an identifier character. Computed
	// here once so the scan loop never touches the unicode tables.
	for c := 0x80; c < 0x100; c++ {
		if unicode.IsLetter(rune(c)) {
			charClass[c] |= clIdentStart | clIdentPart
		}
	}
}

func isDigit(c byte) bool      { return charClass[c]&clDigit != 0 }
func isIdentStart(c byte) bool { return charClass[c]&clIdentStart != 0 }
func isIdentPart(c byte) bool  { return charClass[c]&clIdentPart != 0 }

// Canonical keyword spellings: keywordOf returns these constants, so
// keyword tokens never allocate and compare by pointer in the common case.
var keywordList = [...]string{
	"SELECT", "FROM", "WHERE", "GROUP", "BY",
	"HAVING", "ORDER", "LIMIT", "OFFSET",
	"AS", "AND", "OR", "NOT", "IN",
	"BETWEEN", "LIKE", "IS", "NULL",
	"TRUE", "FALSE", "JOIN", "INNER", "LEFT",
	"OUTER", "ON", "ASC", "DESC",
	"UNION", "ALL", "DISTINCT", "CASE",
	"WHEN", "THEN", "ELSE", "END",
	"COUNT", "SUM", "AVG", "MIN", "MAX",
	"EXISTS", "CAST", "INT", "FLOAT",
	"STRING", "BOOL", "TIME",
}

// kwBuckets holds the keywords' indexes in keywordList bucketed by length
// (2..8), so a candidate word is compared against at most a handful of
// same-length keywords.
var kwBuckets [9][]uint8

func init() {
	for i, kw := range keywordList {
		kwBuckets[len(kw)] = append(kwBuckets[len(kw)], uint8(i))
	}
}

// eqFoldASCII reports whether word equals the upper-case keyword kw under
// ASCII case folding. Lengths are already known equal.
func eqFoldASCII(word, kw string) bool {
	for i := 0; i < len(kw); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

// keywordOf resolves a scanned word to its canonical keyword spelling.
func keywordOf(word string) (string, bool) {
	if len(word) < 2 || len(word) >= len(kwBuckets) {
		return "", false
	}
	for _, i := range kwBuckets[len(word)] {
		if kw := keywordList[i]; eqFoldASCII(word, kw) {
			return kw, true
		}
	}
	return "", false
}

// keywordIndex returns a keyword token's index in keywordList. Its text
// is one of the canonical spellings keywordOf returns, so the comparison
// finds the bytes shared.
func keywordIndex(kw string) (uint8, bool) {
	if len(kw) < 2 || len(kw) >= len(kwBuckets) {
		return 0, false
	}
	for _, i := range kwBuckets[len(kw)] {
		if keywordList[i] == kw {
			return i, true
		}
	}
	return 0, false
}

// LexError describes a lexical error with its 1-based line:column
// position.
type LexError struct {
	Pos  int // byte offset in the input
	Line int // 1-based line number
	Col  int // 1-based column (byte) number within the line
	Msg  string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("sql: lex error at line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lineCol converts a byte offset into a 1-based line:column pair.
func lineCol(input string, pos int) (line, col int) {
	if pos > len(input) {
		pos = len(input)
	}
	line, col = 1, 1
	for i := 0; i < pos; i++ {
		if input[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

func lexErr(input string, pos int, format string, args ...any) *LexError {
	line, col := lineCol(input, pos)
	return &LexError{Pos: pos, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenizes the input. The returned slice always ends with a TokEOF
// token on success.
func Lex(input string) ([]Token, error) {
	return lexInto(input, nil)
}

// lexInto tokenizes into toks (reusing its storage), appending a final
// TokEOF on success. The hot loop dispatches on the char-class table and
// never calls into strings/unicode; identifier and number token texts are
// substrings sharing the input's memory.
func lexInto(input string, toks []Token) ([]Token, error) {
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case charClass[c]&clSpace != 0:
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			isFloat := false
			for i < n && isDigit(input[i]) {
				i++
			}
			if i < n && input[i] == '.' {
				isFloat = true
				i++
				for i < n && isDigit(input[i]) {
					i++
				}
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && isDigit(input[j]) {
					isFloat = true
					i = j
					for i < n && isDigit(input[i]) {
						i++
					}
				}
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			lit := i
			escaped := false
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						escaped = true
						i += 2
						continue
					}
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, lexErr(input, start, "unterminated string literal")
			}
			text := input[lit:i]
			if escaped {
				text = unescapeString(text)
			}
			i++
			toks = append(toks, Token{Kind: TokString, Text: text, Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if kw, ok := keywordOf(word); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case c == '?':
			toks = append(toks, Token{Kind: TokParam, Pos: i})
			i++
		case c == '$' && i+1 < n && isDigit(input[i+1]):
			start := i
			i++
			for i < n && isDigit(input[i]) {
				i++
			}
			toks = append(toks, Token{Kind: TokParam, Text: input[start+1 : i], Pos: start})
		case c == '"':
			// Quoted identifier.
			start := i
			i++
			j := i
			for j < n && input[j] != '"' {
				j++
			}
			if j == n {
				return nil, lexErr(input, start, "unterminated quoted identifier")
			}
			toks = append(toks, Token{Kind: TokIdent, Text: input[i:j], Pos: start})
			i = j + 1
		default:
			start := i
			if i+1 < n {
				switch two := input[i : i+2]; two {
				case "<>", "<=", ">=", "||":
					toks = append(toks, Token{Kind: TokSymbol, Text: two, Pos: start})
					i += 2
					continue
				case "!=":
					toks = append(toks, Token{Kind: TokSymbol, Text: "<>", Pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', '%':
				toks = append(toks, Token{Kind: TokSymbol, Text: symbolText(c), Pos: start})
				i++
			default:
				return nil, lexErr(input, start, "unexpected character %q", rune(c))
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

// symbolTexts maps single-char symbols to interned one-byte strings, so
// symbol tokens never allocate.
var symbolTexts [128]string

func init() {
	for _, c := range []byte{'(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', '%'} {
		symbolTexts[c] = string([]byte{c})
	}
}

func symbolText(c byte) string { return symbolTexts[c] }

// unescapeString collapses doubled quotes in the raw body of a string
// literal (the cold path: literals with no doubled quote are served as
// substrings).
func unescapeString(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		b.WriteByte(raw[i])
		if raw[i] == '\'' {
			i++ // skip the doubled quote
		}
	}
	return b.String()
}

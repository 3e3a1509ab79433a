package feedback

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Shape is a feedback key rendered into a Renderer's buffer: Sig aliases
// that buffer, so a Shape is borrowed until the Renderer's next Reset. The
// Store looks shapes up without copying them and copies one only when it
// records a stream it has never seen. Source and Table are the scan's
// names lowercased; a Renderer lowers a name with capitals once, not per
// rendering.
type Shape struct {
	Source string
	Table  string
	Sig    []byte
}

// Key returns the shape as an owned key.
func (s Shape) Key() Key { return Key{Source: s.Source, Table: s.Table, Sig: string(s.Sig)} }

// Renderer renders feedback signatures into one buffer it keeps across
// Resets, so a pooled owner (the executor's per-query estimator) renders
// the same shapes on every execution without allocating.
type Renderer struct {
	buf []byte
	// The last source and table names rendered, as written and
	// lowercased: a plan's scans mostly repeat them.
	source, table lowered
}

// lowered is one name and its lowercase form.
type lowered struct{ raw, lower string }

// of returns s lowercased, lowering it only when s is not the last name
// this cache saw.
func (l *lowered) of(s string) string {
	if s != l.raw {
		l.raw, l.lower = s, strings.ToLower(s)
	}
	return l.lower
}

// Reset recycles the buffer: every Shape rendered so far becomes invalid.
func (r *Renderer) Reset() { r.buf = r.buf[:0] }

// Signature derives the feedback key of a plan subtree, when it has one,
// as an owned Key. Renderer.Signature is the same rendering into a reused
// buffer; see it for what the key holds.
func Signature(n plan.Node) (Key, bool) {
	var r Renderer
	s, ok := r.Signature(n)
	return s.Key(), ok
}

// Signature renders the feedback key of a plan subtree, when it has one,
// appending its signature to the renderer's buffer. Only shapes whose
// cardinality is attributable to a single base table qualify: a chain of
// Remote / Project / Filter nodes over one Scan. Predicates are masked —
// literals and parameters become "?" — so every execution of the same
// statement template feeds the same key, and the conjuncts are sorted so
// predicate order does not split streams. Column operands stay named
// wherever they sit (comparison sides, BETWEEN bounds, IN-list items), so
// a predicate over columns never shares a stream with a constant one.
// Cardinality-changing shapes (joins, aggregates, limits, distinct) return
// ok=false; their estimates are derived from their inputs, not observed
// directly.
func (r *Renderer) Signature(n plan.Node) (Shape, bool) {
	start := len(r.buf)
	// Each conjunct renders at the end of the buffer; spans records where,
	// on the stack up to eight conjuncts.
	type span struct{ lo, hi int }
	var spanBuf [8]span
	spans := spanBuf[:0]
	var buf [8]sqlparse.Expr
	for {
		if rm, isRemote := n.(*plan.Remote); isRemote {
			n = rm.Child
			continue
		}
		if p, isProject := n.(*plan.Project); isProject {
			// Projection changes width, not cardinality: every
			// Project is transparent, computed columns included, since
			// the conjuncts below it are rendered over the scan's own
			// columns.
			n = p.Input
			continue
		}
		if f, isFilter := n.(*plan.Filter); isFilter {
			for _, c := range sqlparse.AppendConjuncts(buf[:0], f.Cond) {
				lo := len(r.buf)
				r.buf = appendMask(r.buf, c)
				spans = append(spans, span{lo, len(r.buf)})
			}
			n = f.Input
			continue
		}
		break
	}
	s, isScan := n.(*plan.Scan)
	if !isScan || s.Source == "" || s.Table == "" {
		r.buf = r.buf[:start]
		return Shape{}, false
	}
	if len(spans) > 1 {
		// Sort the conjuncts (insertion sort: there are a handful), join
		// them with "|" past the rendered ones, and move the join down.
		for i := 1; i < len(spans); i++ {
			for j := i; j > 0 && bytes.Compare(r.buf[spans[j].lo:spans[j].hi], r.buf[spans[j-1].lo:spans[j-1].hi]) < 0; j-- {
				spans[j], spans[j-1] = spans[j-1], spans[j]
			}
		}
		mid := len(r.buf)
		for i, sp := range spans {
			if i > 0 {
				r.buf = append(r.buf, '|')
			}
			r.buf = append(r.buf, r.buf[sp.lo:sp.hi]...)
		}
		r.buf = r.buf[:start+copy(r.buf[start:], r.buf[mid:])]
	}
	end := len(r.buf)
	return Shape{
		Source: r.source.of(s.Source),
		Table:  r.table.of(s.Table),
		Sig:    r.buf[start:end:end],
	}, true
}

// appendMask appends an expression with every constant (literal or bound
// parameter) replaced by "?", giving a stable shape key per statement
// template.
func appendMask(b []byte, e sqlparse.Expr) []byte {
	switch x := e.(type) {
	case *sqlparse.Literal, *sqlparse.Param:
		return append(b, '?')
	case *sqlparse.ColumnRef:
		if x.Table != "" {
			b = append(appendLower(b, x.Table), '.')
		}
		return appendLower(b, x.Column)
	case *sqlparse.BinaryExpr:
		b = appendMask(append(b, '('), x.Left)
		b = append(append(append(b, ' '), x.Op.String()...), ' ')
		return append(appendMask(b, x.Right), ')')
	case *sqlparse.UnaryExpr:
		b = append(append(append(b, '('), x.Op...), ' ')
		return append(appendMask(b, x.Child), ')')
	case *sqlparse.IsNullExpr:
		b = appendMask(append(b, '('), x.Child)
		if x.Not {
			return append(b, " notnull)"...)
		}
		return append(b, " isnull)"...)
	case *sqlparse.InExpr:
		b = appendMask(append(b, '('), x.Child)
		if x.Not {
			b = append(b, " notin("...)
		} else {
			b = append(b, " in("...)
		}
		if constantList(x.List) {
			// The length of an all-constant list is deliberately masked
			// too: semi-join IN-lists vary per execution but describe the
			// same reduced-fetch stream.
			return append(b, "?))"...)
		}
		for i, item := range x.List {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMask(b, item)
		}
		return append(b, "))"...)
	case *sqlparse.BetweenExpr:
		b = appendMask(append(b, '('), x.Child)
		if x.Not {
			b = append(b, " notbetween "...)
		} else {
			b = append(b, " between "...)
		}
		b = append(appendMask(b, x.Lo), ' ')
		return append(appendMask(b, x.Hi), ')')
	case *sqlparse.FuncExpr:
		b = append(appendLower(b, x.Name), '(')
		for i, a := range x.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMask(b, a)
		}
		return append(b, ')')
	case *sqlparse.CaseExpr:
		b = append(b, "case("...)
		for _, w := range x.Whens {
			b = append(appendMask(b, w.Cond), ':')
			b = append(appendMask(b, w.Result), ';')
		}
		if x.Else != nil {
			b = appendMask(b, x.Else)
		}
		return append(b, ')')
	case *sqlparse.CastExpr:
		return append(appendMask(append(b, "cast("...), x.Child), ')')
	case *sqlparse.KeyFilterExpr:
		// Bloom-summarized semi-join key sets: same stream as the exact
		// IN-list form of the same reduced fetch.
		return append(appendMask(append(b, '('), x.Child), " in(?))"...)
	default:
		panic(fmt.Sprintf("feedback: appendMask missing case for %T", e))
	}
}

// constantList reports whether every item of an IN-list is a literal or a
// parameter, the items appendMask renders as "?".
func constantList(list []sqlparse.Expr) bool {
	for _, item := range list {
		switch item.(type) {
		case *sqlparse.Literal, *sqlparse.Param:
		default:
			return false
		}
	}
	return true
}

// appendLower appends s lowercased, as strings.ToLower renders it.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return append(b, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

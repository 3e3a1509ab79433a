package feedback

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Signature derives the feedback key of a plan subtree, when it has one.
// Only shapes whose cardinality is attributable to a single base table
// qualify: a chain of Remote / Project / Filter nodes over one Scan.
// Predicates are masked — literals and parameters become "?" — so every
// execution of the same statement template feeds the same key, and the
// conjuncts are sorted so predicate order does not split streams.
// Cardinality-changing shapes (joins, aggregates, limits, distinct) return
// ok=false; their estimates are derived from their inputs, not observed
// directly.
func Signature(n plan.Node) (Key, bool) {
	var conjuncts []string
	var buf [8]sqlparse.Expr
	for {
		if r, isRemote := n.(*plan.Remote); isRemote {
			n = r.Child
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
				conjuncts = append(conjuncts, maskExpr(c))
			}
			n = f.Input
			continue
		}
		break
	}
	s, isScan := n.(*plan.Scan)
	if !isScan || s.Source == "" || s.Table == "" {
		return Key{}, false
	}
	sort.Strings(conjuncts)
	return Key{
		Source: strings.ToLower(s.Source),
		Table:  strings.ToLower(s.Table),
		Sig:    strings.Join(conjuncts, "|"),
	}, true
}

// maskExpr renders an expression with every constant (literal or bound
// parameter) replaced by "?", giving a stable shape key per statement
// template.
func maskExpr(e sqlparse.Expr) string {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return "?"
	case *sqlparse.Param:
		return "?"
	case *sqlparse.ColumnRef:
		if x.Table != "" {
			return strings.ToLower(x.Table) + "." + strings.ToLower(x.Column)
		}
		return strings.ToLower(x.Column)
	case *sqlparse.BinaryExpr:
		return "(" + maskExpr(x.Left) + " " + x.Op.String() + " " + maskExpr(x.Right) + ")"
	case *sqlparse.UnaryExpr:
		return "(" + x.Op + " " + maskExpr(x.Child) + ")"
	case *sqlparse.IsNullExpr:
		if x.Not {
			return "(" + maskExpr(x.Child) + " notnull)"
		}
		return "(" + maskExpr(x.Child) + " isnull)"
	case *sqlparse.InExpr:
		// The list length is deliberately masked too: semi-join IN-lists
		// vary per execution but describe the same reduced-fetch stream.
		if x.Not {
			return "(" + maskExpr(x.Child) + " notin(?))"
		}
		return "(" + maskExpr(x.Child) + " in(?))"
	case *sqlparse.InSubquery:
		return "(" + maskExpr(x.Child) + " insub)"
	case *sqlparse.BetweenExpr:
		if x.Not {
			return "(" + maskExpr(x.Child) + " notbetween ? ?)"
		}
		return "(" + maskExpr(x.Child) + " between ? ?)"
	case *sqlparse.FuncExpr:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = maskExpr(a)
		}
		return strings.ToLower(x.Name) + "(" + strings.Join(parts, ",") + ")"
	case *sqlparse.CaseExpr:
		var b strings.Builder
		b.WriteString("case(")
		for _, w := range x.Whens {
			b.WriteString(maskExpr(w.Cond))
			b.WriteString(":")
			b.WriteString(maskExpr(w.Result))
			b.WriteString(";")
		}
		if x.Else != nil {
			b.WriteString(maskExpr(x.Else))
		}
		b.WriteString(")")
		return b.String()
	case *sqlparse.CastExpr:
		return "cast(" + maskExpr(x.Child) + ")"
	case *sqlparse.ExistsExpr:
		return "exists(?)"
	case *sqlparse.KeyFilterExpr:
		// Bloom-summarized semi-join key sets: same stream as the exact
		// IN-list form of the same reduced fetch.
		return "(" + maskExpr(x.Child) + " in(?))"
	default:
		panic(fmt.Sprintf("feedback: maskExpr missing case for %T", e))
	}
}

package sqlparse

import (
	"testing"

	"repro/internal/datum"
)

func TestParseQuestionMarkParams(t *testing.T) {
	sel, err := Parse("SELECT name FROM customers WHERE region = ? AND id > ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxParamIndex(sel); got != 2 {
		t.Fatalf("MaxParamIndex = %d, want 2", got)
	}
	// `?` placeholders must render as explicit $n and re-parse to the
	// same indices.
	re, err := Parse(sel.SQL())
	if err != nil {
		t.Fatalf("rendered SQL %q does not re-parse: %v", sel.SQL(), err)
	}
	if got := MaxParamIndex(re); got != 2 {
		t.Fatalf("re-parsed MaxParamIndex = %d, want 2", got)
	}
}

func TestParseDollarParams(t *testing.T) {
	sel, err := Parse("SELECT name FROM customers WHERE region = $2 AND id > $1")
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxParamIndex(sel); got != 2 {
		t.Fatalf("MaxParamIndex = %d, want 2", got)
	}
	var idxs []int
	WalkSelectExprs(sel, func(e Expr) {
		if p, ok := e.(*Param); ok {
			idxs = append(idxs, p.Index)
		}
	})
	if len(idxs) != 2 || idxs[0] != 2 || idxs[1] != 1 {
		t.Fatalf("param indices = %v, want [2 1]", idxs)
	}
}

func TestParseBadDollarParam(t *testing.T) {
	if _, err := Parse("SELECT 1 FROM t WHERE x = $0"); err == nil {
		t.Fatal("expected error for $0")
	}
}

func TestExtractParamsBasics(t *testing.T) {
	sel, err := Parse(`SELECT name FROM customers c JOIN invoices i ON c.id = i.cust_id
		WHERE region = 'west' AND amount > -800
		AND status IN ('open', 'overdue') AND name LIKE 'A%'
		AND amount BETWEEN 10 AND 99.5`)
	if err != nil {
		t.Fatal(err)
	}
	vals, cacheable := ExtractParamsIn(nil, sel)
	if !cacheable {
		t.Fatal("expected cacheable")
	}
	// 'west', -800, 'open', 'overdue', 'A%', 10, 99.5
	if len(vals) != 7 {
		t.Fatalf("extracted %d values, want 7: %v", len(vals), vals)
	}
	if vals[1].Int() != -800 {
		t.Fatalf("negative literal extracted as %v", vals[1])
	}
	if vals[6].Float() != 99.5 {
		t.Fatalf("between hi extracted as %v", vals[6])
	}
	if got := MaxParamIndex(sel); got != 7 {
		t.Fatalf("MaxParamIndex after extraction = %d, want 7", got)
	}
	// The normalized rendering must re-parse.
	if _, err := Parse(sel.SQL()); err != nil {
		t.Fatalf("normalized SQL %q does not re-parse: %v", sel.SQL(), err)
	}
}

func TestExtractParamsLeavesNonPredicateLiterals(t *testing.T) {
	sel, err := Parse("SELECT region, COUNT(*) FROM customers WHERE id > 5 GROUP BY region LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	vals, cacheable := ExtractParamsIn(nil, sel)
	if !cacheable || len(vals) != 1 {
		t.Fatalf("cacheable=%v vals=%v, want cacheable with 1 value", cacheable, vals)
	}
	if sel.Limit == nil {
		t.Fatal("LIMIT dropped")
	}
	if _, ok := sel.Limit.(*Literal); !ok {
		t.Fatalf("LIMIT literal was parameterized: %T", sel.Limit)
	}
}

func TestExtractParamsRefusesExplicitParams(t *testing.T) {
	for _, sql := range []string{
		"SELECT name FROM customers WHERE region = ?",
		"SELECT name FROM customers WHERE id IN (SELECT cust_id FROM invoices WHERE amount > $1)",
		"SELECT name FROM customers WHERE EXISTS (SELECT id FROM invoices WHERE status = ?) AND region = 'west'",
	} {
		sel, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		before := sel.SQL()
		if _, cacheable := ExtractParamsIn(nil, sel); cacheable {
			t.Fatalf("%s: expected not cacheable", sql)
		}
		if sel.SQL() != before {
			t.Fatalf("%s: statement mutated despite not cacheable", sql)
		}
	}
}

// TestExtractParamsDescendsIntoSubqueries: the predicate constants of IN
// and EXISTS subqueries are parameters like the outer query's, and the
// walk that counts placeholders sees a subquery's.
func TestExtractParamsDescendsIntoSubqueries(t *testing.T) {
	sel, err := Parse("SELECT name FROM customers WHERE id IN (SELECT cust_id FROM invoices WHERE amount > 60) AND NOT EXISTS (SELECT id FROM tickets WHERE severity = 3) AND region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	vals, cacheable := ExtractParamsIn(nil, sel)
	if !cacheable || len(vals) != 3 {
		t.Fatalf("cacheable=%v vals=%v", cacheable, vals)
	}
	want := "SELECT name FROM customers WHERE (((id IN (SELECT cust_id FROM invoices WHERE (amount > $1))) AND (NOT (EXISTS (SELECT id FROM tickets WHERE (severity = $2))))) AND (region = $3))"
	if got := sel.SQL(); got != want {
		t.Errorf("normalized:\n got %s\nwant %s", got, want)
	}
	if n := MaxParamIndex(sel); n != 3 {
		t.Errorf("MaxParamIndex = %d, want 3", n)
	}
}

func TestExtractParamsStringEscapes(t *testing.T) {
	sel, err := Parse("SELECT name FROM customers WHERE name = 'O''Brien'")
	if err != nil {
		t.Fatal(err)
	}
	vals, cacheable := ExtractParamsIn(nil, sel)
	if !cacheable || len(vals) != 1 {
		t.Fatalf("cacheable=%v vals=%v", cacheable, vals)
	}
	if vals[0].Str() != "O'Brien" {
		t.Fatalf("escaped string extracted as %q", vals[0].Str())
	}
	if _, err := Parse(sel.SQL()); err != nil {
		t.Fatalf("normalized SQL does not re-parse: %v", err)
	}
}

func TestRewritePreservesSharedInput(t *testing.T) {
	e, err := ParseExpr("(a + 1) * CAST(b AS FLOAT)")
	if err != nil {
		t.Fatal(err)
	}
	before := e.SQL()
	out, err := RewriteIn(nil, e, func(x Expr) (Expr, error) {
		if lit, ok := x.(*Literal); ok && lit.Value.Kind() == datum.KindInt {
			return &Literal{Value: datum.NewInt(lit.Value.Int() + 41)}, nil
		}
		return x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.SQL() != before {
		t.Fatal("RewriteIn mutated its input")
	}
	if want := "((a + 42) * CAST(b AS FLOAT))"; out.SQL() != want {
		t.Fatalf("rewritten = %q, want %q", out.SQL(), want)
	}
}

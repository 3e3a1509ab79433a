package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datum"
)

func mustParse(t *testing.T, sql string) *Select {
	t.Helper()
	s, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s', 3.5e2 FROM t -- comment\nWHERE x <> 1")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Errorf("first token = %v %q", kinds[0], texts[0])
	}
	if texts[3] != "it's" || kinds[3] != TokString {
		t.Errorf("string literal = %q", texts[3])
	}
	if texts[5] != "3.5e2" || kinds[5] != TokFloat {
		t.Errorf("float literal = %v %q", kinds[5], texts[5])
	}
	// comment must be skipped: after FROM t comes WHERE
	joined := strings.Join(texts, " ")
	if strings.Contains(joined, "comment") {
		t.Error("comments must be stripped")
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("token stream must end with EOF")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("bad character must error")
	}
	if _, err := Lex(`SELECT "unclosed`); err == nil {
		t.Error("unterminated quoted identifier must error")
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks, err := Lex(`SELECT "select" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokIdent || toks[1].Text != "select" {
		t.Errorf("quoted identifier = %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT id, name FROM customers WHERE id = 7")
	if len(s.Items) != 2 || len(s.From) != 1 || s.Where == nil {
		t.Fatalf("unexpected shape: %+v", s)
	}
	bt := s.From[0].(*BaseTable)
	if bt.Name != "customers" {
		t.Errorf("table = %q", bt.Name)
	}
	cmp := s.Where.(*BinaryExpr)
	if cmp.Op != OpEq {
		t.Errorf("where op = %v", cmp.Op)
	}
}

func TestParseStarVariants(t *testing.T) {
	s := mustParse(t, "SELECT *, c.*, id FROM c")
	if !s.Items[0].Star || s.Items[0].TableQual != "" {
		t.Error("bare star")
	}
	if !s.Items[1].Star || s.Items[1].TableQual != "c" {
		t.Error("qualified star")
	}
	if s.Items[2].Star {
		t.Error("plain column became star")
	}
}

func TestParseJoins(t *testing.T) {
	s := mustParse(t, `SELECT a.x FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.k = c.k`)
	j := s.From[0].(*Join)
	if j.Type != JoinLeft {
		t.Errorf("outer join type = %v", j.Type)
	}
	inner := j.Left.(*Join)
	if inner.Type != JoinInner {
		t.Errorf("inner join type = %v", inner.Type)
	}
	if inner.Left.(*BaseTable).Name != "a" || inner.Right.(*BaseTable).Name != "b" {
		t.Error("join operands")
	}
}

func TestParseSourceQualifiedTable(t *testing.T) {
	s := mustParse(t, "SELECT x FROM crm.customers AS c")
	bt := s.From[0].(*BaseTable)
	if bt.Source != "crm" || bt.Name != "customers" || bt.Alias != "c" {
		t.Errorf("qualified table = %+v", bt)
	}
}

func TestParseBareAlias(t *testing.T) {
	s := mustParse(t, "SELECT c.x y FROM customers c")
	if s.From[0].(*BaseTable).Alias != "c" {
		t.Error("bare table alias")
	}
	if s.Items[0].Alias != "y" {
		t.Error("bare column alias")
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	s := mustParse(t, `SELECT region, COUNT(*) AS n FROM orders
		GROUP BY region HAVING COUNT(*) > 5 ORDER BY n DESC, region LIMIT 10 OFFSET 2`)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group/having")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Error("order by")
	}
	if s.Limit == nil || s.Offset == nil {
		t.Error("limit/offset")
	}
	f := s.Items[1].Expr.(*FuncExpr)
	if !f.Star || f.Name != "COUNT" || !f.IsAggregate() {
		t.Error("COUNT(*)")
	}
}

func TestParseAggDistinct(t *testing.T) {
	s := mustParse(t, "SELECT COUNT(DISTINCT city) FROM t")
	f := s.Items[0].Expr.(*FuncExpr)
	if !f.Distinct || len(f.Args) != 1 {
		t.Error("COUNT(DISTINCT ...)")
	}
}

func TestParsePredicates(t *testing.T) {
	s := mustParse(t, `SELECT x FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)
		AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3
		AND e LIKE 'ab%' AND f NOT LIKE '%x' AND g IS NULL AND h IS NOT NULL`)
	// Count predicate varieties by walking.
	var ins, betweens, likes, isnulls int
	WalkExprs(s.Where, func(e Expr) {
		switch x := e.(type) {
		case *InExpr:
			ins++
		case *BetweenExpr:
			betweens++
		case *BinaryExpr:
			if x.Op == OpLike {
				likes++
			}
		case *IsNullExpr:
			isnulls++
		}
	})
	if ins != 2 || betweens != 2 || likes != 2 || isnulls != 2 {
		t.Errorf("predicate counts: in=%d between=%d like=%d isnull=%d", ins, betweens, likes, isnulls)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT 1 + 2 * 3")
	e := s.Items[0].Expr.(*BinaryExpr)
	if e.Op != OpAdd {
		t.Fatalf("top op = %v", e.Op)
	}
	if e.Right.(*BinaryExpr).Op != OpMul {
		t.Error("* must bind tighter than +")
	}
	s = mustParse(t, "SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := s.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatal("OR must be top")
	}
	if or.Right.(*BinaryExpr).Op != OpAnd {
		t.Error("AND must bind tighter than OR")
	}
}

func TestParseNegativeLiteralFolding(t *testing.T) {
	s := mustParse(t, "SELECT -5, -2.5, -(x)")
	if s.Items[0].Expr.(*Literal).Value.Int() != -5 {
		t.Error("-5 must fold")
	}
	if s.Items[1].Expr.(*Literal).Value.Float() != -2.5 {
		t.Error("-2.5 must fold")
	}
	if _, ok := s.Items[2].Expr.(*UnaryExpr); !ok {
		t.Error("-(x) must stay unary")
	}
}

func TestParseCaseCastExists(t *testing.T) {
	s := mustParse(t, `SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END,
		CAST(a AS FLOAT) FROM t WHERE EXISTS (SELECT 1 FROM u)`)
	if _, ok := s.Items[0].Expr.(*CaseExpr); !ok {
		t.Error("CASE")
	}
	c := s.Items[1].Expr.(*CastExpr)
	if c.Type != datum.KindFloat {
		t.Error("CAST target kind")
	}
	if _, ok := s.Where.(*ExistsExpr); !ok {
		t.Error("EXISTS")
	}
}

func TestParseSubqueryTable(t *testing.T) {
	s := mustParse(t, "SELECT v.n FROM (SELECT COUNT(*) AS n FROM t) AS v")
	sub := s.From[0].(*SubqueryTable)
	if sub.Alias != "v" || len(sub.Query.Items) != 1 {
		t.Error("derived table")
	}
	if _, err := Parse("SELECT x FROM (SELECT 1)"); err == nil {
		t.Error("derived table without alias must error")
	}
}

func TestParseUnionAll(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t UNION ALL SELECT b FROM u")
	if s.UnionAll == nil {
		t.Fatal("union branch missing")
	}
	if _, err := Parse("SELECT a FROM t UNION SELECT b FROM u"); err == nil {
		t.Error("bare UNION must be rejected (only UNION ALL)")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a b c FROM t",
		"SELECT a FROM t GROUP",
		"SELECT CASE END",
		"SELECT SUM(*) FROM t",
		"SELECT CAST(a AS BLOB) FROM t",
		"SELECT a FROM t JOIN u",
		"SELECT a FROM t trailing garbage",
		"SELECT a WHERE NOT",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("a + b * 2")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinaryExpr).Op != OpAdd {
		t.Error("expr shape")
	}
	if _, err := ParseExpr("a +"); err == nil {
		t.Error("truncated expr must error")
	}
	if _, err := ParseExpr("a b"); err == nil {
		t.Error("trailing token must error")
	}
}

// Round-trip: rendering a parsed statement and re-parsing it must yield the
// same rendering (SQL() is a fixpoint after one parse).
func TestSQLRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT id, name AS n FROM customers WHERE id = 7",
		"SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y",
		"SELECT region, SUM(amt) FROM o GROUP BY region HAVING SUM(amt) > 10 ORDER BY region DESC LIMIT 5",
		"SELECT DISTINCT a FROM t WHERE b IN (1, 2) AND c LIKE 'x%' OR d IS NOT NULL",
		"SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END FROM t",
		"SELECT CAST(a AS STRING) || 'x' FROM t",
		"SELECT a FROM t UNION ALL SELECT b FROM u",
		"SELECT v.n FROM (SELECT 1 AS n FROM t) AS v",
		"SELECT -x, a - -3 FROM t WHERE NOT (a = 1) AND b NOT BETWEEN 1 AND 2",
		"SELECT crm.customers.id FROM crm.customers",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		r1 := s1.SQL()
		s2, err := Parse(r1)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", r1, err)
			continue
		}
		if r2 := s2.SQL(); r1 != r2 {
			t.Errorf("round trip diverged:\n  %s\n  %s", r1, r2)
		}
	}
}

// Property: any string literal survives the quote/lex round trip.
func TestStringLiteralRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "\x00") {
			return true
		}
		lit := &Literal{Value: datum.NewString(s)}
		toks, err := Lex("SELECT " + lit.SQL())
		if err != nil {
			return false
		}
		return toks[1].Kind == TokString && toks[1].Text == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsAggregate(t *testing.T) {
	e, _ := ParseExpr("1 + SUM(x)")
	if !ContainsAggregate(e) {
		t.Error("SUM nested in + must be detected")
	}
	e, _ = ParseExpr("UPPER(x)")
	if ContainsAggregate(e) {
		t.Error("scalar func is not an aggregate")
	}
}

func TestSplitCombineConjuncts(t *testing.T) {
	e, _ := ParseExpr("a = 1 AND b = 2 AND c = 3")
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("split = %d parts", len(parts))
	}
	back := CombineConjuncts(parts)
	if back.SQL() != e.SQL() {
		t.Errorf("recombined = %s", back.SQL())
	}
	if CombineConjuncts(nil) != nil {
		t.Error("empty combine must be nil")
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Error("nil split must be nil")
	}
}

package sqlparse

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/datum"
)

// benchFamilies are the statement families of the repository benchmark's
// four workloads (portal point lookups, analyst reports, cross-shard
// semi-joins, ad-hoc column and predicate shapes), one instance each.
var benchFamilies = []string{
	"SELECT name, amount, status FROM customer360 WHERE id = 17 AND amount > 250",
	"SELECT region, status, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region, status",
	"SELECT c.region, COUNT(*) AS n, SUM(i.amount) AS total FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id JOIN support.tickets tk ON tk.cust_id = c.id GROUP BY c.region",
	"SELECT c.region, c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > 120",
	"SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 10",
	"SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'east' AND c.segment = 'smb' AND i.status = 'overdue' AND i.amount > 10",
	"SELECT id, name FROM customer360 WHERE id = 42",
	"SELECT name, region, amount FROM customer360 WHERE id = 7 AND amount > 300 ORDER BY inv_id",
	"SELECT inv_id, status FROM customer360 WHERE inv_id = 1200 ORDER BY inv_id DESC",
	"SELECT id, segment, status FROM customer360 WHERE id = 9 AND status = 'open' ORDER BY amount, inv_id",
	"SELECT amount FROM customer360 WHERE id BETWEEN 40 AND 43 ORDER BY amount DESC, inv_id",
	"SELECT id, name, region FROM customer360 WHERE id < 9 AND region = 'north'",
	"SELECT name FROM customer360 WHERE id IN (12, 310)",
	"SELECT id, inv_id, amount FROM customer360 WHERE inv_id < 20 AND amount <= 700",
}

// rawEnd returns the end in sql of a literal token's text as written: a
// string literal's closing quote, past any doubled quote inside it.
func rawEnd(sql string, t Token) int {
	if t.Kind != TokString {
		return t.Pos + len(t.Text)
	}
	j := t.Pos + 1
	for j < len(sql) {
		if sql[j] == '\'' {
			if j+1 < len(sql) && sql[j+1] == '\'' {
				j += 2
				continue
			}
			return j + 1
		}
		j++
	}
	return j
}

// rewriteLiterals returns sql with the text of each literal token that
// replace returns a non-empty replacement for spliced in.
func rewriteLiterals(sql string, toks []Token, replace func(i int, t Token) string) string {
	var b strings.Builder
	at := 0
	for i, t := range toks {
		if !isLiteral(t.Kind) {
			continue
		}
		if r := replace(i, t); r != "" {
			b.WriteString(sql[at:t.Pos])
			b.WriteString(r)
			at = rawEnd(sql, t)
		}
	}
	b.WriteString(sql[at:])
	return b.String()
}

// otherLiteral returns a literal of t's kind chosen by x: mostly a plain
// value, now and then one that does not fit or holds a doubled quote.
func otherLiteral(t Token, x uint64) string {
	switch t.Kind {
	case TokInt:
		if x%11 == 0 {
			return "99999999999999999999"
		}
		return strconv.FormatUint(x%1000, 10)
	case TokFloat:
		if x%13 == 0 {
			return "1e400"
		}
		return strconv.FormatUint(x%100, 10) + "." + strconv.FormatUint(x%7, 10) + "5"
	default:
		if x%5 == 0 {
			return "'it''s'"
		}
		return "'v" + strconv.FormatUint(x%97, 10) + "'"
	}
}

// parsePath is what the parse path makes of sql: its normalized key and
// the parameter values it extracts, or the error it fails with.
func parsePath(sql string) (norm string, vals []datum.Datum, err error) {
	a := GetArena()
	defer PutArena(a)
	sel, err := ParseArena(a, sql)
	if err != nil {
		return "", nil, err
	}
	vals, _ = ExtractParamsIn(a, sel)
	return a.RenderSQL(sel), append([]datum.Datum(nil), vals...), nil
}

// checkTokenPath checks the token path against the parse path on sql and
// on sql with its literals rewritten to others of their kinds, as seed
// chooses: wherever the token path binds a rewritten statement, a parse
// of it gives the same normalized key and exactly the same parameter
// values; where it would not, the token path falls back.
func checkTokenPath(t *testing.T, sql string, seed uint64) {
	t.Helper()
	a := GetArena()
	defer PutArena(a)
	key, ok, err := a.LexKey(sql)
	if err != nil || !ok {
		return
	}
	tokens := string(key)
	sel, err := ParseLexed(a, sql)
	if err != nil {
		return
	}
	want, cacheable := ExtractParamsIn(a, sel)
	if !cacheable {
		t.Fatalf("%q: LexKey found no placeholder, ExtractParamsIn did", sql)
	}
	want = append([]datum.Datum(nil), want...)
	keys := a.CacheKeys(sel)
	if keys.Tokens != tokens {
		t.Fatalf("%q: CacheKeys renders token key %q, LexKey %q", sql, keys.Tokens, tokens)
	}
	if norm, _, _ := parsePath(sql); keys.SQL != norm {
		t.Fatalf("%q: CacheKeys renders %q, RenderSQL %q", sql, keys.SQL, norm)
	}
	b := GetArena()
	defer PutArena(b)
	if _, _, err := b.LexKey(sql); err != nil {
		t.Fatal(err)
	}
	got, ok := b.BindLiterals(keys.Lits)
	if !ok || !sameValues(got, want) {
		t.Fatalf("%q: its own tokens bind %v (ok %v), the parse extracts %v", sql, got, ok, want)
	}

	toks, _ := Lex(sql)
	x := seed
	alt := rewriteLiterals(sql, toks, func(i int, tok Token) string {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>62 == 0 {
			return "" // keep this one
		}
		return otherLiteral(tok, x>>33)
	})
	key, ok, err = b.LexKey(alt)
	if err != nil || !ok || string(key) != tokens {
		return // the rewrite changed the token stream: another shape
	}
	got, ok = b.BindLiterals(keys.Lits)
	if !ok {
		return // the token path falls back to the parse
	}
	norm, vals, err := parsePath(alt)
	if err != nil {
		t.Fatalf("%q binds by its token key, but its parse fails: %v", alt, err)
	}
	if norm != keys.SQL {
		t.Fatalf("%q binds by the token key of %q, but normalizes to\n%q, not\n%q", alt, sql, norm, keys.SQL)
	}
	if !sameValues(got, vals) {
		t.Fatalf("%q: the token path binds %v, the parse extracts %v", alt, got, vals)
	}
}

func sameValues(a, b []datum.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameDatum(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestTokenPathCorpus runs FuzzTokenKey's seeds in tier-1, each under a
// few rewrites.
func TestTokenPathCorpus(t *testing.T) {
	for _, sql := range append(append([]string(nil), experimentCorpus...), benchFamilies...) {
		for seed := uint64(1); seed <= 8; seed++ {
			checkTokenPath(t, sql, seed)
		}
	}
}

// FuzzTokenKey is the token path's differential harness: for any
// statement and any rewrite of its literals to others of their kinds,
// the token path binds what a parse of the rewritten text extracts, under
// the same normalized key, or falls back to that parse.
func FuzzTokenKey(f *testing.F) {
	for _, sql := range experimentCorpus {
		f.Add(sql, uint64(1))
	}
	for _, sql := range benchFamilies {
		f.Add(sql, uint64(7))
	}
	f.Add("SELECT a FROM t WHERE a = -5 AND b = - -2.5 AND c = -(7)", uint64(3))
	f.Add("SELECT 1, 'x' FROM t WHERE a = 'it''s' LIMIT 3", uint64(5))
	f.Fuzz(checkTokenPath)
}

func tokenKey(t *testing.T, sql string) string {
	t.Helper()
	a := GetArena()
	defer PutArena(a)
	key, ok, err := a.LexKey(sql)
	if err != nil || !ok {
		t.Fatalf("LexKey(%q): ok %v, err %v", sql, ok, err)
	}
	return string(key)
}

// TestTokenKeyMasksOnlyLiterals: the token key ignores literal values,
// spacing, comments and keyword case, and tells apart literal kinds,
// identifiers, keywords and the tokens a quoted identifier could hide.
func TestTokenKeyMasksOnlyLiterals(t *testing.T) {
	base := tokenKey(t, "SELECT a FROM t WHERE b = 5 AND c = 'x' AND d = 2.5")
	for _, same := range []string{
		"SELECT a FROM t WHERE b = 77 AND c = 'it''s' AND d = 1e3",
		"select  a\nfrom t -- comment\nwhere b=5 and c='x' and d=2.5",
	} {
		if tokenKey(t, same) != base {
			t.Errorf("%q has another token key", same)
		}
	}
	for _, other := range []string{
		"SELECT a FROM t WHERE b = 5.0 AND c = 'x' AND d = 2.5",
		"SELECT a FROM t WHERE b = '5' AND c = 'x' AND d = 2.5",
		"SELECT a FROM t WHERE b = -5 AND c = 'x' AND d = 2.5",
		"SELECT A FROM t WHERE b = 5 AND c = 'x' AND d = 2.5",
		"SELECT a FROM t WHERE b = 5 OR c = 'x' AND d = 2.5",
		"SELECT a FROM t WHERE b = TRUE AND c = 'x' AND d = 2.5",
		"SELECT a FROM t WHERE (b = 5) AND c = 'x' AND d = 2.5",
	} {
		if tokenKey(t, other) == base {
			t.Errorf("%q shares the token key of the base statement", other)
		}
	}
	if tokenKey(t, `SELECT "a b" FROM t`) == tokenKey(t, "SELECT a b FROM t") {
		t.Error("a quoted identifier with a space keys like two identifiers")
	}
	if tokenKey(t, `SELECT "select" FROM t`) == tokenKey(t, "SELECT select FROM t") {
		t.Error("a quoted identifier keys like the keyword it spells")
	}
	a := GetArena()
	defer PutArena(a)
	if _, ok, _ := a.LexKey("SELECT a FROM t WHERE b = $1"); ok {
		t.Error("a statement with a placeholder has a token key")
	}
	if _, _, err := a.LexKey("SELECT 'open"); err == nil {
		t.Error("LexKey accepted an unterminated string")
	}
}

// bindAs compiles the literal map of from and binds the tokens of to.
func bindAs(t *testing.T, from, to string) ([]datum.Datum, bool) {
	t.Helper()
	a := GetArena()
	defer PutArena(a)
	if _, _, err := a.LexKey(from); err != nil {
		t.Fatal(err)
	}
	sel, err := ParseLexed(a, from)
	if err != nil {
		t.Fatal(err)
	}
	ExtractParamsIn(a, sel)
	keys := a.CacheKeys(sel)
	if keys.Tokens != tokenKey(t, to) {
		t.Fatalf("%q and %q have different token keys", from, to)
	}
	b := GetArena()
	defer PutArena(b)
	b.LexKey(to)
	vals, ok := b.BindLiterals(keys.Lits)
	return append([]datum.Datum(nil), vals...), ok
}

// TestBindLiterals: the literal map binds folded minuses, the keyword
// literals ExtractParamsIn extracts, and checks the literals it leaves
// inline; a number that does not fit falls back.
func TestBindLiterals(t *testing.T) {
	vals, ok := bindAs(t,
		"SELECT a FROM t WHERE b = -5 AND c = - -2.5 AND d = -(7) AND e = TRUE AND f = NULL AND g IN ('x', 1)",
		"SELECT a FROM t WHERE b = -6 AND c = - -3.5 AND d = -(8) AND e = TRUE AND f = NULL AND g IN ('y', 2)")
	want := []datum.Datum{datum.NewInt(-6), datum.NewFloat(3.5), datum.NewInt(-8), datum.NewBool(true), datum.Null, datum.NewString("y"), datum.NewInt(2)}
	if !ok || !sameValues(vals, want) {
		t.Errorf("bound %v (ok %v), want %v", vals, ok, want)
	}
	if _, ok := bindAs(t, "SELECT 1, a FROM t WHERE b = 5 LIMIT 10", "SELECT 1, a FROM t WHERE b = 6 LIMIT 10"); !ok {
		t.Error("equal inline literals did not bind")
	}
	for _, other := range []string{
		"SELECT 2, a FROM t WHERE b = 5 LIMIT 10",
		"SELECT 1, a FROM t WHERE b = 5 LIMIT 11",
		"SELECT 01, a FROM t WHERE b = 5 LIMIT 10", // one value, other text: falls back too
		"SELECT 1, a FROM t WHERE b = 99999999999999999999 LIMIT 10",
	} {
		if vals, ok := bindAs(t, "SELECT 1, a FROM t WHERE b = 5 LIMIT 10", other); ok {
			t.Errorf("%q bound %v by the map of another statement", other, vals)
		}
	}
}

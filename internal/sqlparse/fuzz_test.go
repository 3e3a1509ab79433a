package sqlparse

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/datum"
)

// experimentCorpus is the SQL the E1–E16 experiments and examples issue,
// plus shapes covering every grammar production (CASE, CAST, EXISTS,
// IN-lists, BETWEEN, subqueries, UNION ALL, quoted identifiers,
// placeholders). It seeds FuzzParseDeparse and runs as a straight
// round-trip corpus in tier-1.
var experimentCorpus = []string{
	// E1–E16 experiment and example workloads.
	"SELECT name, building, model FROM employee360 WHERE emp_id = 7",
	"SELECT name, building, model FROM employee360 WHERE dept = 'sales'",
	"SELECT name, building, model FROM employee360 WHERE location = 'SEA'",
	"SELECT name, building, model FROM employee360 WHERE model = 'X1'",
	"SELECT id, name, region, segment FROM crm.customers",
	"SELECT inv_id, cust_id, amount, status FROM billing.invoices",
	"SELECT id, name, amount FROM customer360 WHERE id < 40",
	"SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region",
	"SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 800",
	"SELECT region, COUNT(*) AS n FROM customer360 WHERE amount > 250 GROUP BY region ORDER BY region",
	"SELECT region, status, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region, status",
	"SELECT name, amount, status FROM customer360 WHERE id = 17 AND amount > 250",
	"SELECT id AS k FROM crm.customers",
	"SELECT k FROM directory",
	"SELECT * FROM employee360",
	"SELECT COUNT(*) FROM employee360 WHERE dept = 'engineering'",
	"SELECT emp_id, name FROM hr.employees LIMIT 10",
	"SELECT name FROM employee360 WHERE model = 'X1' AND location = 'SEA' ORDER BY name LIMIT 5",
	"SELECT name, total FROM customer_totals WHERE total > 50 ORDER BY total DESC",
	"SELECT region, COUNT(*) AS invoices, SUM(amount) AS revenue FROM customer360 GROUP BY region ORDER BY region",
	// Grammar-coverage shapes.
	"SELECT DISTINCT region FROM customer360",
	"SELECT a, b FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x', 'y')",
	"SELECT a FROM t WHERE a BETWEEN 1 AND 10 OR b NOT BETWEEN 2 AND 3",
	"SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL",
	"SELECT a FROM t WHERE name LIKE 'Jo%' AND name NOT LIKE '%nes'",
	"SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END AS size FROM t",
	"SELECT CAST(a AS FLOAT) FROM t WHERE CAST(b AS STRING) = '7'",
	"SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.b = t.a)",
	"SELECT a FROM t WHERE a IN (SELECT b FROM u)",
	"SELECT x.n FROM (SELECT COUNT(*) AS n FROM t GROUP BY region) AS x WHERE x.n > 2",
	"SELECT a FROM t UNION ALL SELECT b FROM u",
	"SELECT a FROM t WHERE a = $1 AND b > $2",
	"SELECT a FROM t WHERE a = ? AND b = ?",
	"SELECT -a, NOT b, a + b * c - d / e % f FROM t",
	"SELECT a || '-' || b AS tag FROM t",
	"SELECT \"Quoted Col\" FROM \"Weird Table\"",
	"SELECT t.a, u.b FROM t LEFT JOIN u ON t.id = u.id AND u.live = TRUE",
	"SELECT a FROM t WHERE b = TRUE AND c = FALSE AND d = NULL",
	"SELECT MIN(a), MAX(b), AVG(c), COUNT(DISTINCT d) FROM t HAVING COUNT(*) > 1",
	"SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10 OFFSET 5",
}

// roundTrip checks the differential property on one accepted statement:
// parse→deparse→parse yields a structurally identical AST and a
// byte-identical second deparse, and the arena parser agrees with the
// heap parser token for token.
func roundTrip(t *testing.T, sql string) {
	t.Helper()
	sel1, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	out1 := sel1.SQL()
	sel2, err := Parse(out1)
	if err != nil {
		t.Fatalf("deparse of %q is unparseable: %q: %v", sql, out1, err)
	}
	if out2 := sel2.SQL(); out2 != out1 {
		t.Fatalf("deparse not byte-stable for %q:\n first: %q\nsecond: %q", sql, out1, out2)
	}
	if !sameAST(reflect.ValueOf(sel1), reflect.ValueOf(sel2)) {
		t.Fatalf("parse(deparse(x)) differs from parse(x) for %q (deparse %q)", sql, out1)
	}
	// Differential: the arena-backed hot-path parser must accept the same
	// input and produce the same rendering as the retain-safe parser.
	a := GetArena()
	defer PutArena(a)
	selA, err := ParseArena(a, sql)
	if err != nil {
		t.Fatalf("ParseArena(%q) rejected what Parse accepted: %v", sql, err)
	}
	if outA := a.RenderSQL(selA); outA != out1 {
		t.Fatalf("arena parse of %q renders %q, heap parse renders %q", sql, outA, out1)
	}
}

var datumType = reflect.TypeFor[datum.Datum]()

// sameAST reports whether a and b are structurally identical, comparing
// every value as reflect.DeepEqual does except a datum.Datum, which holds
// a STRING's bytes by pointer: DeepEqual would compare that pointer by
// address, so two parses of one literal would differ. Datums match on
// kind, on payload bit for bit (floats by their bits) and on string bytes.
func sameAST(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == datumType {
		return sameDatum(a.Interface().(datum.Datum), b.Interface().(datum.Datum))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameAST(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameAST(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameAST(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); !bv.IsValid() || !sameAST(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	default: // basic kinds by ==, channels and unsafe pointers by identity
		return a.Equal(b)
	}
}

// sameDatum reports whether a and b are one value in one encoding.
func sameDatum(a, b datum.Datum) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case datum.KindBool:
		return a.Bool() == b.Bool()
	case datum.KindInt:
		return a.Int() == b.Int()
	case datum.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case datum.KindString:
		return a.Str() == b.Str()
	case datum.KindTime:
		return a.Time().UnixMicro() == b.Time().UnixMicro()
	default: // KindNull
		return true
	}
}

// TestSameASTComparesDatumsByValue checks sameAST itself: two parses of
// one statement hold each string literal at its own address and match;
// one literal altered, at the same length or not, does not match.
func TestSameASTComparesDatumsByValue(t *testing.T) {
	parse := func(sql string) reflect.Value {
		sel, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return reflect.ValueOf(sel)
	}
	const sql = "SELECT a FROM t WHERE b = 'sales' AND c = 2.5 AND d IN (1, 'x')"
	if !sameAST(parse(sql), parse(sql)) {
		t.Errorf("two parses of %q differ", sql)
	}
	for _, alt := range []string{
		"SELECT a FROM t WHERE b = 'salez' AND c = 2.5 AND d IN (1, 'x')",
		"SELECT a FROM t WHERE b = 'sale' AND c = 2.5 AND d IN (1, 'x')",
		"SELECT a FROM t WHERE b = 'sales' AND c = 2.25 AND d IN (1, 'x')",
		"SELECT a FROM t WHERE b = 'sales' AND c = 2.5 AND d IN (1, 'y')",
		"SELECT a FROM t WHERE b = 'sales' AND c = 2.5 AND d IN ('1', 'x')",
	} {
		if sameAST(parse(sql), parse(alt)) {
			t.Errorf("%q and %q compare as one AST", sql, alt)
		}
	}
}

// TestParseDeparseCorpus runs the full seeded corpus in tier-1 — every
// experiment statement must round-trip byte-identically.
func TestParseDeparseCorpus(t *testing.T) {
	for _, sql := range experimentCorpus {
		roundTrip(t, sql)
	}
}

// FuzzParseDeparse is the differential fuzz harness: for arbitrary
// inputs the two parsers must agree on accept/reject (without panicking),
// and every accepted input must round-trip deparse-stably.
func FuzzParseDeparse(f *testing.F) {
	for _, sql := range experimentCorpus {
		f.Add(sql)
	}
	// Broken inputs keep the rejection paths honest under mutation.
	f.Add("SELECT")
	f.Add("SELECT 'abc")
	f.Add("SELECT a FROM t WHERE (")
	f.Add("select a from t group x")
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := Parse(sql)
		a := GetArena()
		defer PutArena(a)
		_, errA := ParseArena(a, sql)
		if (err == nil) != (errA == nil) {
			t.Fatalf("parser disagreement on %q: heap err=%v, arena err=%v", sql, err, errA)
		}
		if err != nil {
			return // rejected by both without panicking: property holds
		}
		_ = sel
		roundTrip(t, sql)
	})
}

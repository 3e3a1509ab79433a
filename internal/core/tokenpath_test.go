package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// benchFamilies are the statement families of the repository benchmark's
// four workloads over the CRM federation, one or two instances each.
var benchFamilies = []string{
	"SELECT name, amount, status FROM customer360 WHERE id = 17 AND amount > 250",
	"SELECT region, status, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region, status",
	"SELECT c.region, COUNT(*) AS n, SUM(i.amount) AS total FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id JOIN support.tickets tk ON tk.cust_id = c.id GROUP BY c.region",
	"SELECT c.region, c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > 120",
	"SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 10",
	"SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'east' AND c.segment = 'smb' AND i.status = 'overdue' AND i.amount > 10",
	"SELECT id, name FROM customer360 WHERE id = 42",
	"SELECT name, region, amount FROM customer360 WHERE id = 7 AND amount > 300 ORDER BY inv_id",
	"SELECT inv_id, status FROM customer360 WHERE inv_id = 120 ORDER BY inv_id DESC",
	"SELECT id, segment, status FROM customer360 WHERE id = 9 AND status = 'open' ORDER BY amount, inv_id",
	"SELECT amount FROM customer360 WHERE id BETWEEN 40 AND 43 ORDER BY amount DESC, inv_id",
	"SELECT id, name, region FROM customer360 WHERE id < 9 AND region = 'north'",
	"SELECT name FROM customer360 WHERE id IN (12, 31)",
	"SELECT id, inv_id, amount FROM customer360 WHERE inv_id < 20 AND amount <= 700",
}

// TestWarmHitNeverParses: once a statement shape is cached, a statement
// of that shape with other constants is served by its token key — a hit
// that binds the new constants and never enters the parser — and answers
// as a fresh compile of it does.
func TestWarmHitNeverParses(t *testing.T) {
	e := core.NewTestFederation(t)
	ctx := context.Background()
	qo := core.DefaultQueryOptions()
	if _, err := e.QueryOptsCtx(ctx, "SELECT name FROM crm.customers WHERE region = 'west' AND id > 1", qo); err != nil {
		t.Fatal(err)
	}
	const warm = "SELECT name FROM crm.customers WHERE region = 'east' AND id > 0"
	_, params, hit, parsed, err := e.StatementPlan(warm, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || parsed {
		t.Fatalf("warm statement: hit %v, parsed %v; want a hit that never parses", hit, parsed)
	}
	if want := []datum.Datum{datum.NewString("east"), datum.NewInt(0)}; !sameValues(params, want) {
		t.Errorf("bound %v, want %v", params, want)
	}
	before := e.PlanCacheStats()
	res, err := e.QueryOptsCtx(ctx, warm, qo)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := e.QueryOptsCtx(ctx, warm, core.QueryOptions{NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || canonical(res) != canonical(fresh) {
		t.Errorf("warm hit %v answered %q, a fresh compile %q", res.CacheHit, canonical(res), canonical(fresh))
	}
	if after := e.PlanCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Entries != before.Entries {
		t.Errorf("a token-key hit moved the counters from %+v to %+v", before, after)
	}
}

// TestPreparedPlanGainsTokenKey: a plan PrepareOpts compiled is stored
// without a token key. The first literal statement of its shape parses,
// finds it by its normalized key and gives it its own token key, so the
// second and third runs never enter the parser; the cache still holds one
// plan, and the prepared statement keeps running it.
func TestPreparedPlanGainsTokenKey(t *testing.T) {
	e := core.NewTestFederation(t)
	ctx := context.Background()
	qo := core.DefaultQueryOptions()
	ps, err := e.PrepareOpts(ctx, "SELECT name FROM crm.customers WHERE id = $1", qo)
	if err != nil {
		t.Fatal(err)
	}
	before := e.PlanCacheStats()
	tmpl := e.CachedTemplate(ps.SQL(), qo)
	for run := 1; run <= 3; run++ {
		got, _, hit, parsed, err := e.StatementPlan("SELECT name FROM crm.customers WHERE id = 3", qo)
		if err != nil {
			t.Fatal(err)
		}
		if !hit || got != tmpl || parsed != (run == 1) {
			t.Fatalf("run %d: hit %v, the prepared plan %v, parsed %v; want a hit on it that parses only on the first run", run, hit, got == tmpl, parsed)
		}
	}
	if after := e.PlanCacheStats(); after.Entries != before.Entries || after.Misses != before.Misses {
		t.Errorf("attaching a token key moved the cache from %+v to %+v", before, after)
	}
	res, err := ps.ExecuteCtx(ctx, datum.NewInt(3))
	if err != nil || !res.CacheHit || canonical(res) != "'Cal'|" {
		t.Fatalf("the prepared statement afterwards: hit %v, %q, %v", res != nil && res.CacheHit, canonical(res), err)
	}
}

// TestTokenMissCountsOneLookup: a statement whose token key misses but
// whose normalized text hits counts one hit, and a stale plan found by
// its token key is retired once, as the parse path would.
func TestTokenMissCountsOneLookup(t *testing.T) {
	e := core.NewTestFederation(t)
	ctx := context.Background()
	if _, err := e.QueryCtx(ctx, "SELECT name FROM crm.customers WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	before := e.PlanCacheStats()
	// Other spacing and parentheses: another token key, one normalized text.
	res, err := e.QueryCtx(ctx, "SELECT name FROM crm.customers WHERE (id = 3)")
	if err != nil {
		t.Fatal(err)
	}
	after := e.PlanCacheStats()
	if !res.CacheHit || after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Entries != 1 {
		t.Errorf("normalized-key hit after a token miss: hit %v, counters %+v then %+v", res.CacheHit, before, after)
	}
	if err := e.DefineView("crm_names", "SELECT name FROM crm.customers"); err != nil {
		t.Fatal(err)
	}
	e.BumpCatalog() // retires every plan; the next lookup compiles
	res, err = e.QueryCtx(ctx, "SELECT name FROM crm.customers WHERE id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("a plan retired by a catalog bump served by its token key")
	}
}

func canonical(r *core.Result) string {
	var rows []string
	for _, row := range r.Rows {
		var b strings.Builder
		for _, d := range row {
			b.WriteString(d.String())
			b.WriteByte('|')
		}
		rows = append(rows, b.String())
	}
	return strings.Join(rows, "\n")
}

func sameValues(a, b []datum.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || datum.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// referenceKey is what the parse path makes of sql: its normalized text
// and the values it extracts. ok is false for a statement the cache does
// not serve by value.
func referenceKey(t *testing.T, sql string) (norm string, vals []datum.Datum, ok bool) {
	t.Helper()
	a := sqlparse.GetArena()
	defer sqlparse.PutArena(a)
	sel, err := sqlparse.ParseArena(a, sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	vals, ok = sqlparse.ExtractParamsIn(a, sel)
	return a.RenderSQL(sel), append([]datum.Datum(nil), vals...), ok
}

// literalEnd returns the end in sql of a literal token as written.
func literalEnd(sql string, t sqlparse.Token) int {
	if t.Kind != sqlparse.TokString {
		return t.Pos + len(t.Text)
	}
	j := t.Pos + 1
	for j < len(sql) && (sql[j] != '\'' || j+1 < len(sql) && sql[j+1] == '\'') {
		if sql[j] == '\'' {
			j++
		}
		j++
	}
	return j + 1
}

// changeLiterals returns sql with every literal token that pick chooses
// changed to another value of its kind: a number gains a leading 1, a
// string a trailing z.
func changeLiterals(sql string, pick func(i int) bool) string {
	toks, err := sqlparse.Lex(sql)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	at := 0
	for i, tok := range toks {
		switch tok.Kind {
		case sqlparse.TokInt, sqlparse.TokFloat, sqlparse.TokString:
		default:
			continue
		}
		if !pick(i) {
			continue
		}
		end := literalEnd(sql, tok)
		b.WriteString(sql[at:tok.Pos])
		if tok.Kind == sqlparse.TokString {
			b.WriteString(sql[tok.Pos : end-1])
			b.WriteString("z'")
		} else {
			b.WriteString("1")
			b.WriteString(sql[tok.Pos:end])
		}
		at = end
	}
	b.WriteString(sql[at:])
	return b.String()
}

// checkTokenPath checks one statement under cold and warm caches: the
// token path selects the template the parse path's key names and binds
// the values a parse extracts, for the statement, for the statement with
// every extracted literal changed (a hit that never parses), and for the
// statement with every literal changed (a hit only when that leaves the
// normalized text as it was, and a fallback to the parse when a literal
// the plan keeps inline differs).
func checkTokenPath(t *testing.T, c costCase) {
	t.Helper()
	norm, vals, ok := referenceKey(t, c.sql)
	if !ok {
		return
	}
	c.e.InvalidatePlans()
	tmpl, params, hit, parsed, err := c.e.StatementPlan(c.sql, c.qo)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	if hit || !parsed || !sameValues(params, vals) || c.e.CachedTemplate(norm, c.qo) != tmpl {
		t.Fatalf("%s cold: hit %v, parsed %v, bound %v (parse extracts %v), template cached under the parse path's key: %v",
			c.label, hit, parsed, params, vals, c.e.CachedTemplate(norm, c.qo) == tmpl)
	}
	warm := func(sql string, wantParse bool) {
		t.Helper()
		wantNorm, wantVals, _ := referenceKey(t, sql)
		got, params, hit, parsed, err := c.e.StatementPlan(sql, c.qo)
		if err != nil {
			t.Fatalf("%s: %q: %v", c.label, sql, err)
		}
		same := wantNorm == norm
		switch {
		case same && (!hit || got != tmpl || parsed != wantParse):
			t.Fatalf("%s warm %q: hit %v, same template %v, parsed %v (want %v)", c.label, sql, hit, got == tmpl, parsed, wantParse)
		case !same && (hit || got == tmpl || !parsed):
			t.Fatalf("%s warm %q normalizes to another key, yet hit %v, same template %v, parsed %v", c.label, sql, hit, got == tmpl, parsed)
		case !sameValues(params, wantVals):
			t.Fatalf("%s warm %q: bound %v, the parse extracts %v", c.label, sql, params, wantVals)
		}
	}
	warm(c.sql, false)
	// A literal is extracted when changing it alone leaves the key.
	extracted := func(i int) bool {
		n, _, _ := referenceKey(t, changeLiterals(c.sql, func(j int) bool { return j == i }))
		return n == norm
	}
	warm(changeLiterals(c.sql, extracted), false)
	all := changeLiterals(c.sql, func(int) bool { return true })
	warm(all, !func() bool { // parsed unless every literal is extracted
		toks, _ := sqlparse.Lex(c.sql)
		for i, tok := range toks {
			switch tok.Kind {
			case sqlparse.TokInt, sqlparse.TokFloat, sqlparse.TokString:
				if !extracted(i) {
					return false
				}
			}
		}
		return true
	}())
}

// TestTokenPathMatchesParsePath runs the differential check over the 110
// cost cases, the random equivalence corpus, the subquery corpus and the
// benchmark's statement families.
func TestTokenPathMatchesParsePath(t *testing.T) {
	cases := costCases(t, 12)
	fed := core.NewTestFederation(t)
	for i, sql := range core.EquivalenceStatements(60) {
		cases = append(cases, costCase{"equivalence " + string(rune('0'+i%10)), fed, sql, core.QueryOptions{}})
	}
	cases = append(cases, subqueryCostCases(t)...)
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	crm, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range benchFamilies {
		cases = append(cases,
			costCase{"bench default", crm.Engine, sql, core.DefaultQueryOptions()},
			costCase{"bench static", crm.Engine, sql, core.QueryOptions{}})
	}
	for _, c := range cases {
		checkTokenPath(t, c)
	}
}

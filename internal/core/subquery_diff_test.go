package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// This file checks subquery statements against answers computed here,
// from the rows of the outer query and of each subquery, each run on its
// own as a statement without subqueries, under SQL's three-valued rules.

// tri is an SQL truth value.
type tri uint8

const (
	no tri = iota
	yes
	unknown
)

func not(a tri) tri {
	switch a {
	case yes:
		return no
	case no:
		return yes
	}
	return unknown
}

func and(a, b tri) tri {
	switch {
	case a == no || b == no:
		return no
	case a == yes && b == yes:
		return yes
	}
	return unknown
}

func or(a, b tri) tri { return not(and(not(a), not(b))) }

func truth(b bool) tri {
	if b {
		return yes
	}
	return no
}

// number returns a numeric datum's value; the fixtures' numbers are small
// enough that an INT's float64 is exact.
func number(d datum.Datum) (float64, bool) {
	switch d.Kind() {
	case datum.KindInt:
		return float64(d.Int()), true
	case datum.KindFloat:
		return d.Float(), true
	}
	return 0, false
}

// equal is SQL's = over two non-NULL values: INT 1 equals FLOAT 1.0.
func equal(a, b datum.Datum) bool {
	x, aNum := number(a)
	y, bNum := number(b)
	if aNum && bNum {
		return x == y
	}
	return a.Kind() == b.Kind() && a.Display() == b.Display()
}

// eq is x = v.
func eq(x, v datum.Datum) tri {
	if x.IsNull() || v.IsNull() {
		return unknown
	}
	return truth(equal(x, v))
}

// gt is x > n.
func gt(x datum.Datum, n float64) tri {
	v, ok := number(x)
	if !ok {
		return unknown
	}
	return truth(v > n)
}

// in is x IN (the first column of rows).
func in(x datum.Datum, rows []datum.Row) tri {
	if len(rows) == 0 {
		return no
	}
	if x.IsNull() {
		return unknown
	}
	t := no
	for _, r := range rows {
		switch {
		case r[0].IsNull():
			t = unknown
		case equal(x, r[0]):
			return yes
		}
	}
	return t
}

func exists(rows []datum.Row) tri { return truth(len(rows) > 0) }

// subqueryCase is a statement with subqueries, and how to answer it
// without them: outer returns the statement's output columns followed by
// whatever columns keep reads, each of subs is run on its own, and the
// answer is outer's rows that keep finds TRUE, cut to the statement's
// width — or, with count set, how many there are.
type subqueryCase struct {
	name  string
	stmt  string
	outer string
	subs  []string
	width int
	count bool
	keep  func(o datum.Row, s [][]datum.Row) tri
}

func integer(v int64) datum.Datum { return datum.NewInt(v) }

var subqueryCases = []subqueryCase{
	{
		name:  "IN",
		stmt:  "SELECT name FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60) ORDER BY name",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE amount > 60"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "NOT IN",
		stmt:  "SELECT name FROM crm.customers WHERE id NOT IN (SELECT cust_id FROM billing.invoices) ORDER BY name",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "IN empty, counted",
		stmt:  "SELECT COUNT(*) FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)",
		outer: "SELECT id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE amount > 1e9"},
		count: true,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[0], s[0]) },
	},
	{
		name:  "NOT IN empty, counted",
		stmt:  "SELECT COUNT(*) FROM crm.customers WHERE id NOT IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)",
		outer: "SELECT id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE amount > 1e9"},
		count: true,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[0], s[0])) },
	},
	{
		name:  "IN, counted",
		stmt:  "SELECT COUNT(*) FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices)",
		outer: "SELECT id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices"},
		count: true,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[0], s[0]) },
	},
	{
		name:  "IN under a join view, counted",
		stmt:  "SELECT COUNT(*) FROM customer360 WHERE id IN (SELECT cust_id FROM billing.invoices WHERE status = 'open')",
		outer: "SELECT id FROM customer360",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE status = 'open'"},
		count: true,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[0], s[0]) },
	},
	{
		name:  "IN over a mediated view, counted",
		stmt:  "SELECT COUNT(*) FROM crm.customers WHERE id IN (SELECT id FROM customer360 WHERE amount >= 75)",
		outer: "SELECT id FROM crm.customers",
		subs:  []string{"SELECT id FROM customer360 WHERE amount >= 75"},
		count: true,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[0], s[0]) },
	},
	{
		name:  "IN, parenthesized",
		stmt:  "SELECT name FROM crm.customers WHERE (id IN (SELECT cust_id FROM billing.invoices))",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "EXISTS AND",
		stmt:  "SELECT name FROM crm.customers WHERE EXISTS (SELECT 1 FROM billing.invoices WHERE amount > 90) AND region = 'west' ORDER BY name",
		outer: "SELECT name, region FROM crm.customers",
		subs:  []string{"SELECT 1 FROM billing.invoices WHERE amount > 90"},
		width: 1,
		keep: func(o datum.Row, s [][]datum.Row) tri {
			return and(exists(s[0]), eq(o[1], datum.NewString("west")))
		},
	},
	{
		name:  "EXISTS empty",
		stmt:  "SELECT name FROM crm.customers WHERE EXISTS (SELECT 1 FROM billing.invoices WHERE amount > 9000)",
		outer: "SELECT name FROM crm.customers",
		subs:  []string{"SELECT 1 FROM billing.invoices WHERE amount > 9000"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return exists(s[0]) },
	},
	{
		name:  "NOT EXISTS empty",
		stmt:  "SELECT name FROM crm.customers WHERE NOT EXISTS (SELECT 1 FROM billing.invoices WHERE amount > 9000)",
		outer: "SELECT name FROM crm.customers",
		subs:  []string{"SELECT 1 FROM billing.invoices WHERE amount > 9000"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(exists(s[0])) },
	},
	{
		name:  "IN under OR",
		stmt:  "SELECT name FROM crm.customers WHERE region = 'east' OR id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)",
		outer: "SELECT name, region, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE amount > 60"},
		width: 1,
		keep: func(o datum.Row, s [][]datum.Row) tri {
			return or(eq(o[1], datum.NewString("east")), in(o[2], s[0]))
		},
	},
	{
		name:  "EXISTS under OR, NULL probe",
		stmt:  "SELECT tag FROM num.l WHERE v = 3 OR EXISTS (SELECT 1 FROM num.ri WHERE w > 5)",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT 1 FROM num.ri WHERE w > 5"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return or(eq(o[1], integer(3)), exists(s[0])) },
	},
	{
		name:  "NOT over IN, NULL in the subquery",
		stmt:  "SELECT tag FROM num.l WHERE NOT (v IN (SELECT w FROM num.r))",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "NOT over IN, NULL probe",
		stmt:  "SELECT tag FROM num.l WHERE NOT (v IN (SELECT w FROM num.r WHERE w IS NOT NULL))",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r WHERE w IS NOT NULL"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "NOT IN, NULLs on both sides",
		stmt:  "SELECT tag FROM num.l WHERE v NOT IN (SELECT w FROM num.r)",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "NOT IN, NULL probe, duplicate keys",
		stmt:  "SELECT tag FROM num.l WHERE v NOT IN (SELECT w FROM num.r WHERE w > 1.5)",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r WHERE w > 1.5"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "NOT IN empty, NULL probe",
		stmt:  "SELECT tag FROM num.l WHERE v NOT IN (SELECT w FROM num.r WHERE w > 100)",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r WHERE w > 100"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "IN, NULLs on both sides, duplicate keys",
		stmt:  "SELECT tag FROM num.l WHERE v IN (SELECT w FROM num.r)",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "INT 1 against FLOAT 1.0 and INT 1",
		stmt:  "SELECT tag FROM num.l WHERE v IN (SELECT w FROM num.r WHERE w < 1.5 UNION ALL SELECT w FROM num.ri)",
		outer: "SELECT tag, v FROM num.l",
		subs:  []string{"SELECT w FROM num.r WHERE w < 1.5 UNION ALL SELECT w FROM num.ri"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "FLOAT 1.0 against INT 1",
		stmt:  "SELECT w FROM num.r WHERE w IN (SELECT w FROM num.ri)",
		outer: "SELECT w FROM num.r",
		subs:  []string{"SELECT w FROM num.ri"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[0], s[0]) },
	},
	{
		name:  "HAVING NOT IN",
		stmt:  "SELECT cust_id, COUNT(*) FROM billing.invoices GROUP BY cust_id HAVING COUNT(*) NOT IN (SELECT v FROM num.l WHERE v > 1)",
		outer: "SELECT cust_id, COUNT(*) FROM billing.invoices GROUP BY cust_id",
		subs:  []string{"SELECT v FROM num.l WHERE v > 1"},
		width: 2,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(o[1], s[0])) },
	},
	{
		name:  "HAVING IN a group column",
		stmt:  "SELECT cust_id, SUM(amount) FROM billing.invoices GROUP BY cust_id HAVING cust_id IN (SELECT id FROM crm.customers WHERE region = 'east')",
		outer: "SELECT cust_id, SUM(amount) FROM billing.invoices GROUP BY cust_id",
		subs:  []string{"SELECT id FROM crm.customers WHERE region = 'east'"},
		width: 2,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[0], s[0]) },
	},
	{
		name:  "HAVING EXISTS",
		stmt:  "SELECT region, COUNT(*) FROM crm.customers GROUP BY region HAVING COUNT(*) > 1 AND EXISTS (SELECT 1 FROM num.ri)",
		outer: "SELECT region, COUNT(*) FROM crm.customers GROUP BY region",
		subs:  []string{"SELECT 1 FROM num.ri"},
		width: 2,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return and(gt(o[1], 1), exists(s[0])) },
	},
	{
		name:  "derived table",
		stmt:  "SELECT x.name FROM (SELECT name, id FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices)) x WHERE x.id > 1",
		outer: "SELECT name, id FROM crm.customers WHERE id > 1",
		subs:  []string{"SELECT cust_id FROM billing.invoices"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "UNION ALL branch",
		stmt:  "SELECT name FROM crm.customers WHERE region = 'west' UNION ALL SELECT name FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices WHERE status = 'open')",
		outer: "SELECT name, 0, id FROM crm.customers WHERE region = 'west' UNION ALL SELECT name, 1, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE status = 'open'"},
		width: 1,
		keep: func(o datum.Row, s [][]datum.Row) tri {
			if o[1].Int() == 0 {
				return yes
			}
			return in(o[2], s[0])
		},
	},
	{
		name:  "view body",
		stmt:  "SELECT name FROM spenders",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices WHERE amount > 60"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "nested",
		stmt:  "SELECT name FROM crm.customers WHERE id NOT IN (SELECT cust_id FROM billing.invoices WHERE cust_id IN (SELECT v FROM num.l WHERE v > 2))",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices", "SELECT v FROM num.l WHERE v > 2"},
		width: 1,
		keep: func(o datum.Row, s [][]datum.Row) tri {
			var inner []datum.Row
			for _, r := range s[0] {
				if in(r[0], s[1]) == yes {
					inner = append(inner, r)
				}
			}
			return not(in(o[1], inner))
		},
	},
	{
		name:  "IN over a filter-only source",
		stmt:  "SELECT name FROM crm.customers WHERE id IN (SELECT cust_id FROM files.tickets WHERE severity > 1)",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM files.tickets WHERE severity > 1"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "expression probe",
		stmt:  "SELECT name FROM crm.customers WHERE id + 1 IN (SELECT cust_id FROM billing.invoices)",
		outer: "SELECT name, id + 1 FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return in(o[1], s[0]) },
	},
	{
		name:  "constant probe",
		stmt:  "SELECT tag FROM num.l WHERE 0 NOT IN (SELECT v - 2 FROM num.l)",
		outer: "SELECT tag FROM num.l",
		subs:  []string{"SELECT v - 2 FROM num.l"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return not(in(integer(0), s[0])) },
	},
	{
		name:  "two subqueries",
		stmt:  "SELECT name FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices) AND id NOT IN (SELECT cust_id FROM files.tickets)",
		outer: "SELECT name, id FROM crm.customers",
		subs:  []string{"SELECT cust_id FROM billing.invoices", "SELECT cust_id FROM files.tickets"},
		width: 1,
		keep:  func(o datum.Row, s [][]datum.Row) tri { return and(in(o[1], s[0]), not(in(o[1], s[1]))) },
	},
}

// subqueryFleet is the test federation's sources (crm, billing, files)
// plus num: l(v INT, tag) with a NULL and a duplicate key, r(w FLOAT)
// with a NULL and a duplicate, and ri(w INT) holding 1 twice.
func subqueryFleet(t *testing.T) []federation.Source {
	t.Helper()
	base := core.NewTestFederation(t)
	var fleet []federation.Source
	for _, name := range base.Sources() {
		src, _ := base.Source(name)
		fleet = append(fleet, src)
	}
	num := federation.NewRelationalSource("num", federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	for _, tab := range []struct {
		name string
		cols []schema.Column
		rows []datum.Row
	}{
		{"l", []schema.Column{{Name: "v", Kind: datum.KindInt, Nullable: true}, {Name: "tag", Kind: datum.KindString}}, []datum.Row{
			{integer(1), datum.NewString("a")}, {integer(2), datum.NewString("b")}, {integer(2), datum.NewString("b2")},
			{integer(3), datum.NewString("c")}, {datum.Null, datum.NewString("n")},
		}},
		{"r", []schema.Column{{Name: "w", Kind: datum.KindFloat, Nullable: true}}, []datum.Row{
			{datum.NewFloat(1)}, {datum.NewFloat(2)}, {datum.NewFloat(2)}, {datum.Null},
		}},
		{"ri", []schema.Column{{Name: "w", Kind: datum.KindInt}}, []datum.Row{{integer(1)}, {integer(1)}}},
	} {
		table, err := num.CreateTable(schema.MustTable(tab.name, tab.cols))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.rows {
			if err := table.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	num.RefreshStats()
	return append(fleet, num)
}

// subqueryEngine is a mediator over fleet with the test federation's
// customer360 view and spenders, a view whose body holds a subquery.
func subqueryEngine(t *testing.T, fleet []federation.Source) *core.Engine {
	t.Helper()
	e := core.New()
	for _, src := range fleet {
		if err := e.Register(src); err != nil {
			t.Fatal(err)
		}
	}
	for name, sql := range map[string]string{
		"customer360": `SELECT c.id AS id, c.name AS name, c.region AS region, i.amount AS amount, i.status AS status
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`,
		"spenders": "SELECT id, name FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)",
	} {
		if err := e.DefineView(name, sql); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// rowSet renders rows as a sorted list, so answers compare as multisets.
func rowSet(rows []datum.Row) string {
	out := make([]string, len(rows))
	for n, r := range rows {
		cells := make([]string, len(r))
		for c, d := range r {
			cells[c] = d.Display()
		}
		out[n] = strings.Join(cells, ",")
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

// separateAnswer answers c from its outer and subquery rows.
func separateAnswer(t *testing.T, e *core.Engine, c subqueryCase) string {
	t.Helper()
	run := func(sql string) []datum.Row {
		t.Helper()
		r, err := e.QueryOptsCtx(context.Background(), sql, core.QueryOptions{NoPlanCache: true})
		if err != nil {
			t.Fatalf("%s: %s: %v", c.name, sql, err)
		}
		return r.Rows
	}
	subs := make([][]datum.Row, len(c.subs))
	for n, sql := range c.subs {
		subs[n] = run(sql)
	}
	var kept []datum.Row
	for _, o := range run(c.outer) {
		if c.keep(o, subs) == yes {
			kept = append(kept, o[:c.width])
		}
	}
	if c.count {
		return rowSet([]datum.Row{{integer(int64(len(kept)))}})
	}
	return rowSet(kept)
}

// TestSubqueriesMatchSeparateEvaluation: every subquery case answers as
// its outer query and subqueries do run apart, under every execution
// configuration, cold and warm, literal and prepared, and on a 2-node
// cluster.
func TestSubqueriesMatchSeparateEvaluation(t *testing.T) {
	ctx := context.Background()
	fleet := subqueryFleet(t)
	ref := subqueryEngine(t, fleet)
	want := make([]string, len(subqueryCases))
	for n, c := range subqueryCases {
		want[n] = separateAnswer(t, ref, c)
	}

	with := func(edit func(*core.QueryOptions)) core.QueryOptions {
		qo := core.DefaultQueryOptions()
		edit(&qo)
		return qo
	}
	configs := []struct {
		label string
		qo    core.QueryOptions
	}{
		{"zero", core.QueryOptions{}},
		{"default", core.DefaultQueryOptions()},
		{"no-semijoin", with(func(qo *core.QueryOptions) { qo.NoSemiJoin = true })},
		{"parallelism 1", with(func(qo *core.QueryOptions) { qo.Parallelism = 1 })},
		{"parallelism 4", with(func(qo *core.QueryOptions) { qo.Parallelism = 4 })},
		{"batch 1", with(func(qo *core.QueryOptions) { qo.BatchSize = 1 })},
	}
	check := func(label string, n int, r *core.Result, err error, hit bool) {
		t.Helper()
		c := subqueryCases[n]
		if err != nil {
			t.Errorf("%s: %s: %v", c.name, label, err)
			return
		}
		if got := rowSet(r.Rows); got != want[n] {
			t.Errorf("%s: %s:\n got %q\nwant %q\n%s", c.name, label, got, want[n], c.stmt)
		}
		if r.CacheHit != hit {
			t.Errorf("%s: %s: CacheHit = %v, want %v", c.name, label, r.CacheHit, hit)
		}
	}
	for _, cfg := range configs {
		e := subqueryEngine(t, fleet)
		for n, c := range subqueryCases {
			e.InvalidatePlans()
			for run, warm := range []bool{false, true} {
				r, err := e.QueryOptsCtx(ctx, c.stmt, cfg.qo)
				check(fmt.Sprintf("%s literal run %d", cfg.label, run+1), n, r, err, warm)
			}

			sel, err := sqlparse.Parse(c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			params, _ := sqlparse.ExtractParamsIn(nil, sel)
			ps, err := e.PrepareOpts(ctx, sel.SQL(), cfg.qo)
			if err != nil {
				t.Fatalf("%s: prepare %s: %v", c.name, sel.SQL(), err)
			}
			e.InvalidatePlans()
			for run, warm := range []bool{false, true} {
				r, err := ps.ExecuteCtx(ctx, params...)
				check(fmt.Sprintf("%s prepared run %d", cfg.label, run+1), n, r, err, warm)
			}
		}
	}

	ccfg := cluster.Config{Nodes: 2}
	for ccfg.Seed = 0; ccfg.Seed < 256; ccfg.Seed++ {
		if o := cluster.Owners(ccfg, "crm", "billing", "num"); o[0] != o[1] || o[1] != o[2] {
			break
		}
	}
	cl, err := cluster.New(ccfg, func(int) (*core.Engine, error) { return subqueryEngine(t, fleet), nil })
	if err != nil {
		t.Fatal(err)
	}
	// Coordinators take turns, so each node compiles on its first run.
	for n, c := range subqueryCases {
		for node := 0; node < cl.Nodes(); node++ {
			cl.Node(node).Engine().InvalidatePlans()
		}
		for run, warm := range []bool{false, false, true, true} {
			r, err := cl.QueryOptsCtx(ctx, c.stmt, core.DefaultQueryOptions())
			check(fmt.Sprintf("2-node cluster run %d", run+1), n, r, err, warm)
		}
	}
}

// subqueryCostCases is every subquery case under the static, no-semi-join
// and default options, each over a fixture of its own.
func subqueryCostCases(t *testing.T) []costCase {
	t.Helper()
	fleet := subqueryFleet(t)
	var cases []costCase
	for _, c := range []struct {
		label string
		qo    core.QueryOptions
	}{{"static", core.QueryOptions{}}, {"no-semijoin", core.QueryOptions{NoSemiJoin: true}}, {"adaptive", core.DefaultQueryOptions()}} {
		e := subqueryEngine(t, fleet)
		for _, sc := range subqueryCases {
			cases = append(cases, costCase{"subquery " + sc.name + " " + c.label, e, sc.stmt, c.qo})
		}
	}
	return cases
}

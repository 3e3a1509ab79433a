package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/schema"
)

// eagerFederation is a CRM federation shaped for eager aggregation's
// corner cases. Customers have NULL regions; invoices have INT amounts,
// NULL amounts (every invoice of customer 7), NULL statuses, string notes
// for MIN/MAX, and a column of 2^60 multiples whose sums leave int64 past
// eight invoices; tickets sit in a CSV source (no aggregate pushdown), up
// to three per customer, so they duplicate partial rows through a join.
func eagerFederation(t *testing.T) *Engine {
	t.Helper()
	e := New()
	link := func() *netsim.Link { return netsim.NewLink(time.Millisecond, 1e6, 1) }
	regions := []string{"west", "east", "", "north"}
	statuses := []string{"paid", "open", "", "overdue", "open"}

	crm := federation.NewRelationalSource("crm", federation.FullSQL(), link())
	customers, err := crm.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString, Nullable: true},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	const custN = 40
	for id := 1; id <= custN; id++ {
		region := datum.NewString(regions[id%len(regions)])
		if regions[id%len(regions)] == "" {
			region = datum.Null
		}
		if err := customers.Insert(datum.Row{datum.NewInt(int64(id)), datum.NewString(fmt.Sprintf("cust%02d", id)), region}); err != nil {
			t.Fatal(err)
		}
	}
	crm.RefreshStats()

	billing := federation.NewRelationalSource("billing", federation.FullSQL(), link())
	invoices, err := billing.CreateTable(schema.MustTable("invoices", []schema.Column{
		{Name: "inv_id", Kind: datum.KindInt},
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindInt, Nullable: true},
		{Name: "status", Kind: datum.KindString, Nullable: true},
		{Name: "note", Kind: datum.KindString},
		{Name: "big", Kind: datum.KindInt},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	inv := 0
	for id := 1; id <= custN; id++ {
		for k := 0; k < 6; k++ {
			inv++
			amount := datum.NewInt(int64(10 + (inv*37)%90))
			if id == 7 || inv%11 == 0 {
				amount = datum.Null
			}
			status := datum.NewString(statuses[inv%len(statuses)])
			if statuses[inv%len(statuses)] == "" {
				status = datum.Null
			}
			row := datum.Row{datum.NewInt(int64(inv)), datum.NewInt(int64(id)), amount, status,
				datum.NewString(fmt.Sprintf("n%03d", (inv*53)%211)), datum.NewInt(1 << 60)}
			if err := invoices.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	billing.RefreshStats()

	support := federation.NewCSVSource("support", link())
	var csv strings.Builder
	csv.WriteString("ticket_id,cust_id,severity\n")
	tid := 0
	for id := 1; id <= custN; id++ {
		for k := 0; k < id%4; k++ {
			tid++
			fmt.Fprintf(&csv, "%d,%d,%d\n", tid, id, 1+(tid%4))
		}
	}
	if _, err := support.LoadCSV("tickets", csv.String()); err != nil {
		t.Fatal(err)
	}
	for _, s := range []federation.Source{crm, billing, support} {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DefineView("inv360", `
		SELECT c.id AS id, c.region AS region, i.amount AS amount, i.status AS status
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`); err != nil {
		t.Fatal(err)
	}
	return e
}

// partialAggregates counts the Aggregates a plan runs below a join, at a
// source or not, and reports whether any of them sits over another.
func partialAggregates(p plan.Node) (n int, stacked bool) {
	var walk func(plan.Node, bool, bool)
	walk = func(x plan.Node, underJoin, underPartial bool) {
		_, isAgg := x.(*plan.Aggregate)
		_, isJoin := x.(*plan.Join)
		if isAgg && underJoin {
			n++
			stacked = stacked || underPartial
		}
		plan.MapInputs(nil, x, func(in plan.Node) plan.Node {
			walk(in, underJoin || isJoin, underPartial || (isAgg && underJoin))
			return in
		})
	}
	walk(p, false, false)
	return n, stacked
}

// shipsPartial reports whether a Remote fragment of p aggregates.
func shipsPartial(p plan.Node) bool {
	found := false
	plan.Walk(p, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok {
			plan.Walk(r.Child, func(n plan.Node) {
				_, isAgg := n.(*plan.Aggregate)
				found = found || isAgg
			})
		}
	})
	return found
}

// orderedRows renders a result in its row order.
func orderedRows(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for j, d := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(d.String())
		}
		b.WriteByte('|')
	}
	return b.String()
}

// TestEagerAggregationMatchesLazy runs every statement whose plan
// pre-aggregates one join input at its source against the same statement
// under NoRemotePushdown, which ships raw rows and groups once at the
// mediator, across semi-join on/off, parallelism 1 and 2, and a cold and a
// warm plan cache: the row count and the multiset of rows must agree, and
// the row order too where ORDER BY fixes it.
func TestEagerAggregationMatchesLazy(t *testing.T) {
	e := eagerFederation(t)
	ctx := context.Background()
	lazy := QueryOptions{Optimizer: opt.Options{NoRemotePushdown: true}, Parallelism: 1}
	cases := []struct {
		name    string
		sql     string
		ordered bool
	}{
		{"NULL keys, NULL and all-NULL sums, COUNT(col), string MIN/MAX", `SELECT c.region, COUNT(*), COUNT(i.amount), SUM(i.amount), MIN(i.note), MAX(i.note)
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region`, false},
		{"per customer: one all-NULL partial group", `SELECT c.id, SUM(i.amount), MIN(i.amount), COUNT(i.amount)
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.id`, false},
		{"NULL keys on the aggregated side", `SELECT i.status, c.region, SUM(i.amount), MAX(i.amount)
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY i.status, c.region`, false},
		{"ticket duplicates replicate partial rows", `SELECT c.region, COUNT(*), SUM(i.amount), MIN(i.note), MAX(i.note), COUNT(i.status)
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id
			JOIN support.tickets tk ON tk.cust_id = c.id GROUP BY c.region`, false},
		{"HAVING and ORDER BY on aggregate names", `SELECT c.region, SUM(i.amount) AS total, COUNT(*) AS n
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id
			GROUP BY c.region HAVING SUM(i.amount) > 100 AND COUNT(*) >= 6 ORDER BY total DESC, n`, true},
		{"INT SUM past int64", `SELECT c.region, SUM(i.big), COUNT(*)
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region`, false},
		{"through a view", `SELECT region, status, COUNT(*) AS n, SUM(amount) AS total FROM inv360 GROUP BY region, status ORDER BY n, total, region, status`, true},
		{"selective probe side, semi-join candidate", `SELECT c.region, SUM(i.amount), COUNT(*)
			FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.id <= 5 GROUP BY c.region`, false},
	}
	configs := []struct {
		name string
		qo   QueryOptions
	}{
		{"semijoin/par1", QueryOptions{Parallelism: 1}},
		{"semijoin/par2", QueryOptions{Parallelism: 2}},
		{"nosemijoin/par1", QueryOptions{Parallelism: 1, NoSemiJoin: true}},
		{"nosemijoin/par2", QueryOptions{Parallelism: 2, NoSemiJoin: true}},
		{"default", DefaultQueryOptions()},
	}
	for _, c := range cases {
		want, err := e.QueryOptsCtx(ctx, c.sql, lazy)
		if err != nil {
			t.Fatalf("%s: lazy: %v", c.name, err)
		}
		if n, _ := partialAggregates(want.Plan); n != 0 {
			t.Fatalf("%s: NoRemotePushdown plan pre-aggregates:\n%s", c.name, plan.Explain(want.Plan))
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: the reference answer is empty", c.name)
		}
		for _, cfg := range configs {
			e.InvalidatePlans()
			for _, cache := range []string{"cold", "warm"} {
				got, err := e.QueryOptsCtx(ctx, c.sql, cfg.qo)
				if err != nil {
					t.Fatalf("%s %s %s: %v", c.name, cfg.name, cache, err)
				}
				if (cache == "warm") != got.CacheHit {
					t.Fatalf("%s %s %s: cache hit %v", c.name, cfg.name, cache, got.CacheHit)
				}
				if n, stacked := partialAggregates(got.Plan); n != 1 || stacked || !shipsPartial(got.Plan) {
					t.Fatalf("%s %s %s: want one partial aggregate, at the source, got %d (stacked %v):\n%s",
						c.name, cfg.name, cache, n, stacked, plan.Explain(got.Plan))
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s %s %s: %d rows, lazy %d", c.name, cfg.name, cache, len(got.Rows), len(want.Rows))
				}
				if g, w := canonicalRows(got), canonicalRows(want); g != w {
					t.Fatalf("%s %s %s: rows differ\neager: %s\nlazy:  %s", c.name, cfg.name, cache, g, w)
				}
				if c.ordered && orderedRows(got) != orderedRows(want) {
					t.Fatalf("%s %s %s: row order differs\neager: %s\nlazy:  %s", c.name, cfg.name, cache, orderedRows(got), orderedRows(want))
				}
			}
		}
	}

	// The overflowing sum answers in FLOAT on both sides, and the
	// all-NULL customer's sum is NULL.
	res, err := e.QueryOptsCtx(ctx, `SELECT c.id, SUM(i.amount), SUM(i.big) FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id WHERE c.id = 7 GROUP BY c.id`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0][1].IsNull() || res.Rows[0][2].Int() != 6<<60 {
		t.Fatalf("customer 7: got %s", orderedRows(res))
	}
	res, err = e.QueryOptsCtx(ctx, `SELECT c.region, SUM(i.big) FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west' GROUP BY c.region`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Kind() != datum.KindFloat || res.Rows[0][1].Float() != 60*(1<<60) {
		t.Fatalf("west: SUM(big) = %s, want the FLOAT 60*2^60", orderedRows(res))
	}
}

// TestEagerAggregationDeclines: the shapes eager aggregation leaves alone
// keep the plan a lazy optimizer builds, with no aggregate below a Remote.
func TestEagerAggregationDeclines(t *testing.T) {
	e := eagerFederation(t)
	ctx := context.Background()
	for name, sql := range map[string]string{
		"grand aggregate": `SELECT COUNT(*), SUM(i.amount) FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`,
		"DISTINCT":        `SELECT c.region, COUNT(DISTINCT i.status) FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region`,
		"AVG":             `SELECT c.region, AVG(i.amount) FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region`,
		"LEFT JOIN":       `SELECT c.region, SUM(i.amount) FROM crm.customers c LEFT JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region`,
		"CSV side":        `SELECT c.region, SUM(tk.severity) FROM crm.customers c JOIN support.tickets tk ON tk.cust_id = c.id GROUP BY c.region`,
		"COUNT(*) only":   `SELECT c.region, COUNT(*) FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region`,
		// Ungrouped, the empty side's partial would still answer a row.
		"no key on the aggregated side": `SELECT c.region, SUM(i.amount) FROM crm.customers c JOIN billing.invoices i ON 1 = 1
			WHERE i.amount > 1000 GROUP BY c.region`,
	} {
		for _, qo := range []QueryOptions{{}, DefaultQueryOptions()} {
			res, err := e.QueryOptsCtx(ctx, sql, qo)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n, _ := partialAggregates(res.Plan); n != 0 {
				t.Errorf("%s: pre-aggregated a join input:\n%s", name, plan.Explain(res.Plan))
			}
			lazy, err := e.QueryOptsCtx(ctx, sql, QueryOptions{Optimizer: opt.Options{NoRemotePushdown: true}})
			if err != nil {
				t.Fatal(err)
			}
			if canonicalRows(res) != canonicalRows(lazy) {
				t.Errorf("%s: answers differ from NoRemotePushdown's", name)
			}
		}
	}
}

// TestEagerAggregationDoesNotStack: optimizing an eager plan again, or
// re-optimizing it mid-query, keeps its one partial aggregate, and the
// revised plans still give the lazy answer.
func TestEagerAggregationDoesNotStack(t *testing.T) {
	e := eagerFederation(t)
	ctx := context.Background()
	const sql = `SELECT c.region, COUNT(*), SUM(i.amount) FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		JOIN support.tickets tk ON tk.cust_id = c.id GROUP BY c.region`
	p, err := e.Plan(ctx, sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := e.QueryOptsCtx(ctx, sql, QueryOptions{Optimizer: opt.Options{NoRemotePushdown: true}})
	if err != nil {
		t.Fatal(err)
	}
	env := engineEnv{e.state.Load()}
	for name, revised := range map[string]plan.Node{
		"original":       p,
		"optimize again": opt.Optimize(p, env, opt.Options{}),
		"reoptimize":     opt.Reoptimize(p, env, opt.Options{}),
		"both":           opt.Reoptimize(opt.Optimize(p, env, opt.Options{}), env, opt.Options{}),
	} {
		if n, stacked := partialAggregates(revised); n != 1 || stacked {
			t.Fatalf("%s: want one partial aggregate, got %d (stacked %v):\n%s", name, n, stacked, plan.Explain(revised))
		}
		res, err := e.ExecuteCtx(ctx, revised, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if canonicalRows(res) != canonicalRows(lazy) {
			t.Fatalf("%s: rows differ from the lazy plan's", name)
		}
	}
}

package core

import (
	"context"
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

// newFederation builds the canonical CRM test federation:
//   - crm (full SQL): customers
//   - billing (full SQL): invoices
//   - files (filter-only CSV): tickets
func newFederation(t *testing.T) *Engine {
	t.Helper()
	e := New()

	crm := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 1e6, 1))
	custTab, err := crm.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name, region string
	}{{"Ann", "west"}, {"Bob", "east"}, {"Cal", "east"}, {"Dee", "west"}} {
		if err := custTab.Insert(datum.Row{datum.NewInt(int64(i + 1)), datum.NewString(c.name), datum.NewString(c.region)}); err != nil {
			t.Fatal(err)
		}
	}
	crm.RefreshStats()

	billing := federation.NewRelationalSource("billing", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 1e6, 1))
	invTab, err := billing.CreateTable(schema.MustTable("invoices", []schema.Column{
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
		{Name: "status", Kind: datum.KindString},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		id     int64
		amt    float64
		status string
	}{{1, 100, "paid"}, {1, 50, "open"}, {2, 75, "paid"}, {3, 20, "open"}} {
		if err := invTab.Insert(datum.Row{datum.NewInt(r.id), datum.NewFloat(r.amt), datum.NewString(r.status)}); err != nil {
			t.Fatal(err)
		}
	}
	billing.RefreshStats()

	files := federation.NewCSVSource("files", netsim.NewLink(5*time.Millisecond, 1e5, 1))
	if _, err := files.LoadCSV("tickets", "cust_id,severity\n2,3\n3,1\n3,2"); err != nil {
		t.Fatal(err)
	}

	for _, s := range []federation.Source{crm, billing, files} {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DefineView("customer360", `
		SELECT c.id AS id, c.name AS name, c.region AS region,
		       i.amount AS amount, i.status AS status
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`); err != nil {
		t.Fatal(err)
	}
	return e
}

func results(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	for i, row := range r.Rows {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, d := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(d.Display())
		}
	}
	return b.String()
}

func TestQueryOverMediatedView(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), "SELECT name, SUM(amount) AS total FROM customer360 GROUP BY name ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Ann,150|Bob,75|Cal,20" {
		t.Errorf("got %q", got)
	}
	if r.Columns[0] != "name" || r.Columns[1] != "total" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestCrossSourceJoinThreeWays(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT c.name, i.amount, tk.severity
		FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		JOIN files.tickets tk ON tk.cust_id = c.id
		ORDER BY c.name, tk.severity`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Bob,75,3|Cal,20,1|Cal,20,2" {
		t.Errorf("got %q", got)
	}
}

func TestPushdownReducesShipping(t *testing.T) {
	e := newFederation(t)
	sql := "SELECT name FROM crm.customers WHERE region = 'east'"

	e.ResetMetrics()
	optimized, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.ResetMetrics()
	naive, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Optimizer: opt.Options{
		NoFilterPushdown: true, NoProjectionPrune: true, NoRemotePushdown: true, NoJoinReorder: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if results(t, optimized) != results(t, naive) {
		t.Fatalf("optimizer changed results: %q vs %q", results(t, optimized), results(t, naive))
	}
	if optimized.Network.BytesShipped >= naive.Network.BytesShipped {
		t.Errorf("pushdown shipped %d bytes, naive shipped %d",
			optimized.Network.BytesShipped, naive.Network.BytesShipped)
	}
}

func TestSameSourceJoinIsPushedDown(t *testing.T) {
	e := newFederation(t)
	// Add a second table to crm so a same-source join exists.
	crmSrc, _ := e.Source("crm")
	crm := crmSrc.(*federation.RelationalSource)
	addr, err := crm.CreateTable(schema.MustTable("addresses", []schema.Column{
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "city", Kind: datum.KindString},
	}))
	if err != nil {
		t.Fatal(err)
	}
	_ = addr.Insert(datum.Row{datum.NewInt(1), datum.NewString("Seattle")})
	crm.RefreshStats()

	p, err := e.Plan(context.Background(), `SELECT c.name, a.city FROM crm.customers c
		JOIN crm.addresses a ON c.id = a.cust_id`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The whole plan should be one Remote to crm containing the join.
	remotes := 0
	joinInsideRemote := false
	plan.Walk(p, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok {
			remotes++
			plan.Walk(r.Child, func(m plan.Node) {
				if _, ok := m.(*plan.Join); ok {
					joinInsideRemote = true
				}
			})
		}
	})
	if remotes != 1 || !joinInsideRemote {
		t.Errorf("same-source join not pushed: remotes=%d joinInside=%v\n%s",
			remotes, joinInsideRemote, plan.Explain(p))
	}
	r, err := e.ExecuteCtx(context.Background(), p, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Ann,Seattle" {
		t.Errorf("got %q", got)
	}
}

func TestCapabilityClampOnCSVSource(t *testing.T) {
	e := newFederation(t)
	// files is filter-only: an aggregate over it must NOT be pushed down.
	p, err := e.Plan(context.Background(), "SELECT cust_id, COUNT(*) FROM files.tickets GROUP BY cust_id", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aggInsideRemote := false
	plan.Walk(p, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok {
			plan.Walk(r.Child, func(m plan.Node) {
				if _, ok := m.(*plan.Aggregate); ok {
					aggInsideRemote = true
				}
			})
		}
	})
	if aggInsideRemote {
		t.Errorf("aggregate pushed into filter-only source:\n%s", plan.Explain(p))
	}
	r, err := e.ExecuteCtx(context.Background(), p, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestAggregatePushedIntoSQLSource(t *testing.T) {
	e := newFederation(t)
	p, err := e.Plan(context.Background(), "SELECT status, COUNT(*) FROM billing.invoices GROUP BY status", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aggInsideRemote := false
	plan.Walk(p, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok {
			plan.Walk(r.Child, func(m plan.Node) {
				if _, ok := m.(*plan.Aggregate); ok {
					aggInsideRemote = true
				}
			})
		}
	})
	if !aggInsideRemote {
		t.Errorf("aggregate not pushed into SQL source:\n%s", plan.Explain(p))
	}
}

func TestExplainShowsPushdownSQL(t *testing.T) {
	e := newFederation(t)
	out, err := e.Explain(context.Background(), "SELECT name FROM crm.customers WHERE region = 'east'", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pushdown @crm") || !strings.Contains(out, "WHERE") {
		t.Errorf("explain missing pushdown SQL:\n%s", out)
	}
	if !strings.Contains(out, "estimate:") {
		t.Errorf("explain missing estimate:\n%s", out)
	}
}

func TestExistsPreEvaluation(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE EXISTS (SELECT 1 FROM billing.invoices WHERE amount > 90) AND region = 'west'
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results(t, r); got != "Ann|Dee" {
		t.Errorf("got %q", got)
	}
	r, err = e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE EXISTS (SELECT 1 FROM billing.invoices WHERE amount > 9000)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Errorf("EXISTS over empty subquery must eliminate all rows, got %d", len(r.Rows))
	}
}

func TestRegisterErrorsAndDeregister(t *testing.T) {
	e := newFederation(t)
	dup := federation.NewRelationalSource("crm", federation.FullSQL(), nil)
	if err := e.Register(dup); err == nil {
		t.Error("duplicate registration must fail")
	}
	e.Deregister("files")
	if _, err := e.QueryCtx(context.Background(), "SELECT * FROM files.tickets"); err == nil {
		t.Error("query against deregistered source must fail")
	}
	if len(e.Sources()) != 2 {
		t.Errorf("sources = %v", e.Sources())
	}
}

func TestQuerySyntaxAndPlanErrors(t *testing.T) {
	e := newFederation(t)
	if _, err := e.QueryCtx(context.Background(), "SELEKT"); err == nil {
		t.Error("syntax error must surface")
	}
	if _, err := e.QueryCtx(context.Background(), "SELECT nope FROM crm.customers"); err == nil {
		t.Error("unknown column must surface")
	}
	if _, err := e.Explain(context.Background(), "SELEKT", QueryOptions{}); err == nil {
		t.Error("explain must surface parse errors")
	}
}

func TestNetworkMetricsAccumulate(t *testing.T) {
	e := newFederation(t)
	e.ResetMetrics()
	r, err := e.QueryCtx(context.Background(), "SELECT * FROM customer360")
	if err != nil {
		t.Fatal(err)
	}
	if r.Network.RoundTrips < 2 {
		t.Errorf("expected at least 2 round trips (crm + billing), got %d", r.Network.RoundTrips)
	}
	if r.Network.BytesShipped <= 0 || r.Network.SimTime <= 0 {
		t.Errorf("metrics = %+v", r.Network)
	}
	if e.NetworkTotals().RoundTrips != r.Network.RoundTrips {
		t.Error("totals must match single query after reset")
	}
}

func TestParallelMatchesSequentialFederated(t *testing.T) {
	e := newFederation(t)
	sql := `SELECT c.region, COUNT(*) AS n FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id GROUP BY c.region ORDER BY c.region`
	seq, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if results(t, seq) != results(t, par) {
		t.Errorf("parallel diverged: %q vs %q", results(t, seq), results(t, par))
	}
}

func TestJoinReorderPutsSelectiveSideFirst(t *testing.T) {
	e := newFederation(t)
	// Regardless of written order, results must match and the plan must
	// still be a valid join.
	a, err := e.QueryCtx(context.Background(), `SELECT c.name FROM billing.invoices i JOIN crm.customers c ON c.id = i.cust_id WHERE i.amount > 60 ORDER BY c.name`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.QueryCtx(context.Background(), `SELECT c.name FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > 60 ORDER BY c.name`)
	if err != nil {
		t.Fatal(err)
	}
	if results(t, a) != results(t, b) || results(t, a) != "Ann|Bob" {
		t.Errorf("join order affected results: %q vs %q", results(t, a), results(t, b))
	}
}

func TestOptimizerAblationsAllAgree(t *testing.T) {
	e := newFederation(t)
	sql := `SELECT c.region, SUM(i.amount) AS total
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id
		WHERE i.status = 'paid' GROUP BY c.region ORDER BY c.region`
	variants := []opt.Options{
		{},
		{NoFilterPushdown: true},
		{NoProjectionPrune: true},
		{NoJoinReorder: true},
		{NoRemotePushdown: true},
		{NoFilterPushdown: true, NoProjectionPrune: true, NoJoinReorder: true, NoRemotePushdown: true},
	}
	var want string
	for i, v := range variants {
		r, err := e.QueryOptsCtx(context.Background(), sql, QueryOptions{Optimizer: v})
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got := results(t, r)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("variant %+v diverged: %q vs %q", v, got, want)
		}
	}
}

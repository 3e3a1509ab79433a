package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/workload"
)

func TestE13CachedPullsAheadUnderConcurrency(t *testing.T) {
	tab, err := RunE13(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in pairs per client count: compile-every-time, cached.
	if len(tab.Rows)%2 != 0 || len(tab.Rows) == 0 {
		t.Fatalf("unexpected row count %d", len(tab.Rows))
	}
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		compile, cached := tab.Rows[i], tab.Rows[i+1]
		clients := cell(t, compile[0])
		hitRate := cell(t, strings.TrimSuffix(cached[6], "%"))
		if hitRate < 50 {
			t.Errorf("clients=%v: cached hit rate %.1f%% too low", clients, hitRate)
		}
		if clients >= 8 {
			qpsCompile := cell(t, compile[2])
			qpsCached := cell(t, cached[2])
			if qpsCached <= qpsCompile {
				t.Errorf("clients=%v: cached QPS %.0f did not beat compile-every-time %.0f",
					clients, qpsCached, qpsCompile)
			}
		}
	}
}

// sortedRows canonicalizes a result for order-insensitive comparison.
func sortedRows(res *core.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.Display())
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

func equalResults(a, b *core.Result) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	ra, rb := sortedRows(a), sortedRows(b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// TestE13CachedMatchesUncachedOnWorkloads is the correctness sweep: every
// query of the E1 (CRM) and E6 (employee) workloads must return identical
// results through the plan cache and compiled fresh.
func TestE13CachedMatchesUncachedOnWorkloads(t *testing.T) {
	crmCfg := workload.DefaultCRM()
	crmCfg.Customers = 80
	crm, err := workload.BuildCRM(crmCfg)
	if err != nil {
		t.Fatal(err)
	}
	empCfg := workload.DefaultEmployees()
	empCfg.Employees = 120
	emp, err := workload.BuildEmployees(empCfg)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		engine *core.Engine
		sql    string
	}{
		{crm.Engine, `SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 800`},
		{crm.Engine, `SELECT region, COUNT(*) AS n FROM customer360 WHERE amount > 250 GROUP BY region ORDER BY region`},
		{emp.Engine, "SELECT name, building, model FROM employee360 WHERE emp_id = 7"},
		{emp.Engine, "SELECT name, building, model FROM employee360 WHERE dept = 'sales'"},
		{emp.Engine, "SELECT name, building, model FROM employee360 WHERE location = 'SEA'"},
		{emp.Engine, "SELECT name, building, model FROM employee360 WHERE model = 'X1'"},
	}
	for _, tc := range cases {
		// Twice through the cache (miss then hit), once uncached.
		first, err := tc.engine.QueryOptsCtx(context.Background(), tc.sql, core.QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		second, err := tc.engine.QueryOptsCtx(context.Background(), tc.sql, core.QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if !second.CacheHit {
			t.Errorf("%s: second run missed the cache", tc.sql)
		}
		fresh, err := tc.engine.QueryOptsCtx(context.Background(), tc.sql, core.QueryOptions{NoPlanCache: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if !equalResults(first, fresh) || !equalResults(second, fresh) {
			t.Errorf("%s: cached and uncached results differ", tc.sql)
		}
	}
}

// TestE13PlaceholderArities proves binding works at every arity: an
// n-parameter conjunction over the CRM federation returns the same rows as
// the equivalent inline-literal statement, for n = 1..8.
func TestE13PlaceholderArities(t *testing.T) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := fed.Engine
	for n := 1; n <= 8; n++ {
		var holes, lits []string
		var vals []datum.Datum
		for i := 1; i <= n; i++ {
			// Rotate predicate columns so every arity exercises joins,
			// strings and numbers.
			switch i % 3 {
			case 1:
				holes = append(holes, fmt.Sprintf("i.amount > $%d", i))
				lits = append(lits, fmt.Sprintf("i.amount > %d", 50+10*i))
				vals = append(vals, datum.NewInt(int64(50+10*i)))
			case 2:
				holes = append(holes, fmt.Sprintf("c.region <> $%d", i))
				lits = append(lits, "c.region <> 'north'")
				vals = append(vals, datum.NewString("north"))
			default:
				holes = append(holes, fmt.Sprintf("c.id > $%d", i))
				lits = append(lits, fmt.Sprintf("c.id > %d", i))
				vals = append(vals, datum.NewInt(int64(i)))
			}
		}
		base := "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "
		ps, err := e.PrepareOpts(context.Background(), base+strings.Join(holes, " AND "), core.DefaultQueryOptions())
		if err != nil {
			t.Fatalf("arity %d: %v", n, err)
		}
		if ps.NumParams() != n {
			t.Fatalf("arity %d: NumParams = %d", n, ps.NumParams())
		}
		got, err := ps.ExecuteCtx(context.Background(), vals...)
		if err != nil {
			t.Fatalf("arity %d: %v", n, err)
		}
		want, err := e.QueryOptsCtx(context.Background(), base+strings.Join(lits, " AND "), core.QueryOptions{NoPlanCache: true})
		if err != nil {
			t.Fatalf("arity %d inline: %v", n, err)
		}
		if !equalResults(got, want) {
			t.Errorf("arity %d: bound result differs from inline literals", n)
		}
	}
}

package core_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/workload"
)

// costCase is one statement over one fixture under one set of options.
type costCase struct {
	label string
	e     *core.Engine
	sql   string
	qo    core.QueryOptions
}

// e1SQL is E1's filtered cross-source join; e6SQL are E6's four access
// paths through one view.
const e1SQL = `SELECT c.name, i.amount FROM crm.customers c
	JOIN billing.invoices i ON c.id = i.cust_id
	WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 800`

var e6SQL = []string{
	"SELECT name, building, model FROM employee360 WHERE emp_id = 7",
	"SELECT name, building, model FROM employee360 WHERE dept = 'sales'",
	"SELECT name, building, model FROM employee360 WHERE location = 'SEA'",
	"SELECT name, building, model FROM employee360 WHERE model = 'X1'",
}

// costCases builds fresh fixtures and returns the first randomN statements
// of TestOptimizerEquivalenceRandomQueries under each of its optimizer
// configurations and under the default (adaptive) options, then the E1,
// E6 and E20 queries under the options their experiments compare.
func costCases(t *testing.T, randomN int) []costCase {
	t.Helper()
	naive := core.QueryOptions{Optimizer: workload.NaiveOptimizer()}
	configs := []struct {
		label string
		qo    core.QueryOptions
	}{
		{"static", core.QueryOptions{}},
		{"no-semijoin", core.QueryOptions{NoSemiJoin: true}},
		{"no-filterpush", core.QueryOptions{Optimizer: opt.Options{NoFilterPushdown: true}}},
		{"no-projprune", core.QueryOptions{Optimizer: opt.Options{NoProjectionPrune: true}}},
		{"no-reorder", core.QueryOptions{Optimizer: opt.Options{NoJoinReorder: true}}},
		{"no-remotepush", core.QueryOptions{Optimizer: opt.Options{NoRemotePushdown: true}}},
		{"naive", naive},
		{"adaptive", core.DefaultQueryOptions()},
	}
	var cases []costCase
	fed := core.NewTestFederation(t)
	for i, sql := range core.EquivalenceStatements(randomN) {
		for _, c := range configs {
			cases = append(cases, costCase{fmt.Sprintf("random %d %s", i, c.label), fed, sql, c.qo})
		}
	}

	crmCfg := workload.DefaultCRM()
	crmCfg.Customers = 400
	crmCfg.LinkLatency = 2 * time.Millisecond
	crm, err := workload.BuildCRM(crmCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		qo    core.QueryOptions
	}{{"pushdown", core.QueryOptions{NoSemiJoin: true}}, {"push+semijoin", core.QueryOptions{}}, {"naive", naive}, {"adaptive", core.DefaultQueryOptions()}} {
		cases = append(cases, costCase{"E1 " + c.label, crm.Engine, e1SQL, c.qo})
	}

	empCfg := workload.DefaultEmployees()
	empCfg.Employees = 200
	emp, err := workload.BuildEmployees(empCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range e6SQL {
		cases = append(cases,
			costCase{fmt.Sprintf("E6 %d optimized", i), emp.Engine, sql, core.QueryOptions{}},
			costCase{fmt.Sprintf("E6 %d fixed", i), emp.Engine, sql, naive})
	}

	stale, err := workload.BuildStaleStats(4000, false)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		costCase{"E20 static", stale, workload.StaleStatsSQL, core.QueryOptions{Parallel: true}},
		costCase{"E20 adaptive", stale, workload.StaleStatsSQL, core.QueryOptions{Parallel: true, Adaptive: true}})
	return cases
}

// TestCompileCostMatchesFreshEstimator: the cost a compile prices its plan
// at, with the one estimator its optimizer passes shared, is exactly the
// cost a fresh estimator gives the same plan. Adaptive cases execute first,
// so estimates blend in observed cardinalities.
func TestCompileCostMatchesFreshEstimator(t *testing.T) {
	ctx := context.Background()
	for _, c := range costCases(t, 60) {
		if c.qo.Adaptive {
			if _, err := c.e.QueryOptsCtx(ctx, c.sql, c.qo); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
		}
		compiled, fresh, err := c.e.CompileCosts(c.sql, c.qo)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if compiled != fresh {
			t.Errorf("%s: compile priced %+v, a fresh estimator %+v\n%s", c.label, compiled, fresh, c.sql)
		}
	}
}

// TestExplainGolden pins Explain's output — plan, pushed-down SQL and
// estimate — for the cost cases, before any of them executes: a change to
// any plan or estimate shows here as a diff to review.
func TestExplainGolden(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	for _, c := range costCases(t, 12) {
		out, err := c.e.Explain(ctx, c.sql, c.qo)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		fmt.Fprintf(&b, "== %s\n%s", c.label, out)
	}
	want, err := os.ReadFile("testdata/explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of golden>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("Explain output differs from testdata/explain.golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("Explain output is a prefix of testdata/explain.golden (%d of %d lines)", len(gl), len(wl))
}

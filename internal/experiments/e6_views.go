package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/workload"
)

// RunE6 reproduces §4's (Carey) argument for views over hand-written
// integration processes: "constructing the EAI business process is like
// hand-writing a distributed query plan. If employee data can be accessed
// other than by employee id ... different query plans are likely to be
// needed. Twenty plus years of database experience has taught us that it is
// likely to be much more productive to express the integration of employee
// data once, as a view, and then to let the system choose the right query
// plan for each of the different employee queries."
//
// The integration is expressed once (employee360). Four access paths then
// query it; the optimizer adapts each plan, while the "hand-written plan"
// (fixed: fetch everything from every backend, assemble centrally — what a
// business process coded for the by-id path degenerates to on other paths)
// pays full freight every time.
func RunE6(ctx context.Context, scale Scale) (Table, error) {
	n := 200
	if scale == Full {
		n = 1000
	}
	t := Table{
		ID:            "E6",
		Title:         "One view, four access paths: optimizer-chosen vs hand-written fixed plan",
		Claim:         `§4: "constructing the EAI business process is like hand-writing a distributed query plan ... much more productive to express the integration ... once, as a view, and then let the system choose the right query plan"`,
		ExpectedShape: "the optimizer ships little for every access path; the fixed plan ships the whole federation regardless of predicate",
		Columns:       []string{"access-path", "optimized", "fixed-plan", "saving"},
	}
	cfg := workload.DefaultEmployees()
	cfg.Employees = n
	queries := []struct{ name, sql string }{
		{"by-id", "SELECT name, building, model FROM employee360 WHERE emp_id = 7"},
		{"by-dept", "SELECT name, building, model FROM employee360 WHERE dept = 'sales'"},
		{"by-location", "SELECT name, building, model FROM employee360 WHERE location = 'SEA'"},
		{"by-model", "SELECT name, building, model FROM employee360 WHERE model = 'X1'"},
	}
	for _, q := range queries {
		// Each plan runs on its own freshly built federation.
		run := func(o opt.Options) (*core.Result, error) {
			fed, err := workload.BuildEmployees(cfg)
			if err != nil {
				return nil, err
			}
			fed.Engine.ResetMetrics()
			return fed.Engine.QueryOptsCtx(ctx, q.sql, core.QueryOptions{Optimizer: o})
		}
		optRes, err := run(opt.Options{})
		if err != nil {
			return t, err
		}
		fixRes, err := run(workload.NaiveOptimizer())
		if err != nil {
			return t, err
		}
		optBytes, fixBytes := optRes.Network.BytesShipped, fixRes.Network.BytesShipped
		if len(optRes.Rows) != len(fixRes.Rows) {
			return t, fmt.Errorf("E6 %s: plans disagree (%d vs %d rows)", q.name, len(optRes.Rows), len(fixRes.Rows))
		}
		t.Rows = append(t.Rows, []string{
			q.name, fmtBytes(optBytes), fmtBytes(fixBytes),
			ratio(float64(fixBytes), float64(optBytes)),
		})
	}
	t.Notes = "the IT assets source is filter-only, so the optimizer pushes predicates there but assembles joins at the mediator"
	return t, nil
}

package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// renderPlan is a plan's EXPLAIN tree and the SQL pushed to each Remote.
func renderPlan(p plan.Node) string {
	var b strings.Builder
	b.WriteString(plan.Explain(p))
	plan.Walk(p, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok {
			sql, err := federation.Deparse(r.Child)
			fmt.Fprintf(&b, "-- @%s: %s %v\n", r.Source, sql, err)
		}
	})
	return b.String()
}

// adhocShapes are adhoc_churn's statement shapes over the CRM federation:
// column subsets of customer360 under each selective predicate and
// ordering the benchmark draws.
func adhocShapes() []string {
	cols := []string{"id", "name", "region", "segment", "inv_id", "amount", "status"}
	preds := []string{"id = 7", "id = 7 AND amount > 250", "inv_id = 19", "id = 7 AND status = 'open'",
		"id BETWEEN 7 AND 10", "id < 9 AND region = 'west'", "id IN (7, 301)", "inv_id < 12 AND amount <= 500"}
	orders := []string{"", " ORDER BY inv_id", " ORDER BY inv_id DESC", " ORDER BY amount, inv_id", " ORDER BY amount DESC, inv_id"}
	var out []string
	for mask := 1; mask < 1<<len(cols); mask += 5 {
		var pick []string
		for c, name := range cols {
			if mask&(1<<c) != 0 {
				pick = append(pick, name)
			}
		}
		out = append(out, "SELECT "+strings.Join(pick, ", ")+" FROM customer360 WHERE "+preds[mask%len(preds)]+orders[mask%len(orders)])
	}
	return out
}

// TestRetainedTemplateOutlivesArena: a plan-cache miss compiles in the
// query's arena and keeps only plan.Retain's copy. Every template is
// compiled through one arena, which is reset and compiles every later
// statement over the earlier ones' memory; at the end each template must
// still render byte for byte as a heap compile of its key text does —
// plan, pushed SQL and all — over the equivalence statements, the cost
// cases, the adhoc_churn shapes and the subquery cases.
func TestRetainedTemplateOutlivesArena(t *testing.T) {
	cases := costCases(t, 12)
	fed := core.NewTestFederation(t)
	for i, sql := range core.EquivalenceStatements(120) {
		cases = append(cases, costCase{fmt.Sprintf("equivalence %d", i), fed, sql, core.QueryOptions{}})
	}
	crm, err := workload.BuildCRM(workload.DefaultCRM())
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range adhocShapes() {
		cases = append(cases, costCase{fmt.Sprintf("adhoc %d", i), crm.Engine, sql, core.DefaultQueryOptions()})
	}
	cases = append(cases, subqueryCostCases(t)...)

	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	type kept struct {
		costCase
		key  string
		tmpl plan.Node
	}
	var all []kept
	for _, c := range cases {
		key, tmpl, err := c.e.MissTemplate(ar, c.sql, c.qo)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		all = append(all, kept{c, key, tmpl})
		ar.Reset()
	}
	for _, k := range all {
		heap, err := k.e.HeapPlan(k.key, k.qo)
		if err != nil {
			t.Fatalf("%s: %v", k.label, err)
		}
		if got, want := renderPlan(k.tmpl), renderPlan(heap); got != want {
			t.Errorf("%s: retained template differs from a heap compile of %q:\ngot:\n%swant:\n%s", k.label, k.key, got, want)
		}
	}
}

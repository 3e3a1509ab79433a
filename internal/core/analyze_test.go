package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datum"
)

func TestExplainAnalyzeShowsActualRows(t *testing.T) {
	e := newFederation(t)
	out, err := e.ExplainAnalyze(context.Background(),
		"SELECT name FROM crm.customers WHERE region = 'east'", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two east customers exist; the top operator must report actual=2.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "actual=2)") {
		t.Errorf("top operator line = %q", lines[0])
	}
	if !strings.Contains(out, "-- actual:") || !strings.Contains(out, "-- estimated:") {
		t.Errorf("missing actual/estimated footer:\n%s", out)
	}
	if !strings.Contains(out, "shipped=") {
		t.Errorf("missing network accounting:\n%s", out)
	}
}

func TestExplainAnalyzeJoinOperatorRows(t *testing.T) {
	e := newFederation(t)
	out, err := e.ExplainAnalyze(context.Background(), `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id`, QueryOptions{NoSemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	// 4 invoices join 4 customers by cust_id: the join emits 4 rows.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "JOIN") && strings.Contains(line, "actual=4)") {
			found = true
		}
	}
	if !found {
		t.Errorf("join row count missing:\n%s", out)
	}
}

func TestExplainAnalyzeErrors(t *testing.T) {
	e := newFederation(t)
	if _, err := e.ExplainAnalyze(context.Background(), "SELEKT", QueryOptions{}); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := e.ExplainAnalyze(context.Background(), "SELECT 1/0", QueryOptions{}); err == nil {
		t.Error("runtime error must surface")
	}
}

// TestDiagnosticsNameTheValues: a statement runs its plan template, whose
// explain output and trace name the values it ran with — cold (the miss
// that compiled it), warm (a hit, with its prepared slots from the second
// reuse on) and prepared — beside a plan that prints their placeholders.
func TestDiagnosticsNameTheValues(t *testing.T) {
	ctx := context.Background()
	e := newFederation(t)
	qo := QueryOptions{Explain: true, Trace: true}
	const values = "$1 = 'west', $2 = 1"
	check := func(what string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !strings.Contains(res.ExplainOutput, "(region = $1)") || !strings.Contains(res.ExplainOutput, "\n-- values: "+values+"\n") {
			t.Errorf("%s: explain output does not list the values %s:\n%s", what, values, res.ExplainOutput)
		}
		if trace := res.Trace.Render(); !strings.Contains(trace, "\n  plan "+values+" [") {
			t.Errorf("%s: the trace's plan span is not named with the values %s:\n%s", what, values, trace)
		}
	}
	for i, what := range []string{"cold", "warm", "warm, prepared slots"} {
		res, err := e.QueryOptsCtx(ctx, "SELECT name FROM crm.customers WHERE region = 'west' AND id > 1", qo)
		if err == nil && res.CacheHit != (i > 0) {
			t.Fatalf("%s: cache hit %v", what, res.CacheHit)
		}
		check(what, res, err)
	}
	ps, err := e.PrepareOpts(ctx, "SELECT name FROM crm.customers WHERE region = $1 AND id > $2", qo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.ExecuteCtx(ctx, datum.NewString("west"), datum.NewInt(1))
	check("prepared", res, err)

	res, err = e.QueryOptsCtx(ctx, "SELECT name FROM crm.customers WHERE region = 'west' AND id > 1", QueryOptions{Explain: true, Trace: true, NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.ExplainOutput, "-- values:") || !strings.Contains(res.ExplainOutput, "(region = 'west')") {
		t.Errorf("a plan compiled with its literals inline:\n%s", res.ExplainOutput)
	}
}

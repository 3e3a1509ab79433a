package core

import (
	"context"
	"strings"
	"testing"
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

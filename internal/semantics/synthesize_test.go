package semantics

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/schema"
)

// synthFixture sets up two customer tables with heterogeneous schemas in
// two live sources, plus the ontology/registry describing them.
func synthFixture(t *testing.T) (*core.Engine, *schema.Table, *schema.Table, []Correspondence, *Registry) {
	t.Helper()
	aTab := schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "full_name", Kind: datum.KindString},
	}, 0)
	bTab := schema.MustTable("clients", []schema.Column{
		{Name: "cust_no", Kind: datum.KindString}, // note: string-typed key
		{Name: "fullName", Kind: datum.KindString},
	}, 0)

	e := core.New()
	crm := federation.NewRelationalSource("crm", federation.FullSQL(), nil)
	at, err := crm.CreateTable(aTab)
	if err != nil {
		t.Fatal(err)
	}
	_ = at.Insert(datum.Row{datum.NewInt(1), datum.NewString("Ann Stone")})
	_ = at.Insert(datum.Row{datum.NewInt(2), datum.NewString("Bob Cruz")})
	legacy := federation.NewRelationalSource("legacy", federation.FullSQL(), nil)
	bt, err := legacy.CreateTable(bTab)
	if err != nil {
		t.Fatal(err)
	}
	_ = bt.Insert(datum.Row{datum.NewString("7"), datum.NewString("Cal Moss")})
	crm.RefreshStats()
	legacy.RefreshStats()
	if err := e.Register(crm); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(legacy); err != nil {
		t.Fatal(err)
	}

	onto := NewOntology()
	onto.AddConcept("customer-id")
	onto.AddSynonym("cust_no", "customer-id")
	reg := NewRegistry()
	reg.Annotate(ColRef{"crm", "customers", "id"}, "customer-id")
	reg.Annotate(ColRef{"legacy", "clients", "cust_no"}, "customer-id")
	matches := MatchTables("crm", aTab, "legacy", bTab, reg, onto, 0.6)
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	return e, aTab, bTab, matches, reg
}

func TestSynthesizedUnionViewExecutes(t *testing.T) {
	e, aTab, bTab, matches, _ := synthFixture(t)
	sql, err := SynthesizeUnionView("crm", aTab, "legacy", bTab, matches)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "UNION ALL") || !strings.Contains(sql, "CAST(") {
		t.Errorf("synthesized SQL = %s", sql)
	}
	// The generated mapping must plan and run as a mediated view.
	if err := e.DefineView("all_customers", sql); err != nil {
		t.Fatalf("generated view does not plan: %v\n%s", err, sql)
	}
	res, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM all_customers")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("union count = %v", res.Rows[0][0])
	}
	// The CAST made the string key numeric: id 7 is queryable as INT.
	res, err = e.QueryCtx(context.Background(), "SELECT full_name FROM all_customers WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Cal Moss" {
		t.Errorf("cast key query = %v", res.Rows)
	}
}

func TestSynthesizeUnionViewErrors(t *testing.T) {
	_, aTab, bTab, _, _ := synthFixture(t)
	if _, err := SynthesizeUnionView("crm", aTab, "legacy", bTab, nil); err == nil {
		t.Error("empty correspondence set must error")
	}
	bad := []Correspondence{{A: ColRef{"crm", "customers", "ghost"}, B: ColRef{"legacy", "clients", "cust_no"}}}
	if _, err := SynthesizeUnionView("crm", aTab, "legacy", bTab, bad); err == nil {
		t.Error("unknown column must error")
	}
}

func TestSynthesizedJoinViewExecutes(t *testing.T) {
	// Two tables about the same entities joined on the annotated key.
	aTab := schema.MustTable("employees", []schema.Column{
		{Name: "emp_no", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
	}, 0)
	bTab := schema.MustTable("badges", []schema.Column{
		{Name: "employee_id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString}, // collides with A's name
	}, 0)
	e := core.New()
	hr := federation.NewRelationalSource("hr", federation.FullSQL(), nil)
	at, _ := hr.CreateTable(aTab)
	_ = at.Insert(datum.Row{datum.NewInt(1), datum.NewString("Ann")})
	sec := federation.NewRelationalSource("sec", federation.FullSQL(), nil)
	bt, _ := sec.CreateTable(bTab)
	_ = bt.Insert(datum.Row{datum.NewInt(1), datum.NewString("BADGE-A")})
	hr.RefreshStats()
	sec.RefreshStats()
	_ = e.Register(hr)
	_ = e.Register(sec)

	reg := NewRegistry()
	reg.Annotate(ColRef{"hr", "employees", "emp_no"}, "employee-id")
	reg.Annotate(ColRef{"sec", "badges", "employee_id"}, "employee-id")
	matches := []Correspondence{
		{A: ColRef{"hr", "employees", "emp_no"}, B: ColRef{"sec", "badges", "employee_id"}, Confidence: 1},
		{A: ColRef{"hr", "employees", "name"}, B: ColRef{"sec", "badges", "name"}, Confidence: 1},
	}
	sql, err := SynthesizeJoinView("hr", aTab, "sec", bTab, matches, reg, "employee-id")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DefineView("employee_badges", sql); err != nil {
		t.Fatalf("generated view does not plan: %v\n%s", err, sql)
	}
	res, err := e.QueryCtx(context.Background(), "SELECT emp_no, name, b_name FROM employee_badges")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][2].Str() != "BADGE-A" {
		t.Errorf("join view rows = %v", res.Rows)
	}
	if _, err := SynthesizeJoinView("hr", aTab, "sec", bTab, matches, reg, "nonexistent"); err == nil {
		t.Error("missing key concept must error")
	}
}

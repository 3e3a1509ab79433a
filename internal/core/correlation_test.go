package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/linkage"
	"repro/internal/schema"
)

// corrFixture builds two sources describing the same companies with dirty,
// unjoinable name keys, plus the mediator.
func corrFixture(t *testing.T) (*Engine, *linkage.JoinIndex) {
	t.Helper()
	e := New()
	crm := federation.NewRelationalSource("crm", federation.FullSQL(), nil)
	ct, err := crm.CreateTable(schema.MustTable("accounts", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "company", Kind: datum.KindString},
		{Name: "tier", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	legacy := federation.NewRelationalSource("legacy", federation.FullSQL(), nil)
	lt, err := legacy.CreateTable(schema.MustTable("firms", []schema.Column{
		{Name: "firm_id", Kind: datum.KindInt},
		{Name: "firm_name", Kind: datum.KindString},
		{Name: "credit", Kind: datum.KindInt},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		id           int64
		clean, dirty string
	}
	data := []rec{
		{1, "Atlas Logistics Inc", "ATLAS, Logistics"},
		{2, "Borealis Fabrication", "borealis fabrication co"},
		{3, "Cascade Analytics", "Cascade Analytic"},
	}
	var left, right []linkage.Record
	for _, r := range data {
		if err := ct.Insert(datum.Row{datum.NewInt(r.id), datum.NewString(r.clean), datum.NewString("gold")}); err != nil {
			t.Fatal(err)
		}
		if err := lt.Insert(datum.Row{datum.NewInt(100 + r.id), datum.NewString(r.dirty), datum.NewInt(700 + r.id)}); err != nil {
			t.Fatal(err)
		}
		left = append(left, linkage.Record{Key: datum.NewInt(r.id), Text: r.clean})
		right = append(right, linkage.Record{Key: datum.NewInt(100 + r.id), Text: r.dirty})
	}
	crm.RefreshStats()
	legacy.RefreshStats()
	if err := e.Register(crm); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(legacy); err != nil {
		t.Fatal(err)
	}
	ix := linkage.Build(left, right, linkage.Config{Threshold: 0.6})
	return e, ix
}

func TestCorrelationTableJoinsInSQL(t *testing.T) {
	e, ix := corrFixture(t)
	if ix.Len() < 3 {
		t.Fatalf("join index too sparse: %d pairs", ix.Len())
	}
	if err := e.DefineCorrelation("crm2legacy", ix); err != nil {
		t.Fatal(err)
	}
	// The query §5's customers needed: join two systems through the
	// stored correlation.
	res, err := e.QueryCtx(context.Background(), `
		SELECT a.company, f.credit
		FROM crm.accounts a
		JOIN correlations.crm2legacy m ON a.id = m.left_key
		JOIN legacy.firms f ON f.firm_id = m.right_key
		ORDER BY a.company`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "Atlas Logistics Inc" || res.Rows[0][1].Int() != 701 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	// A direct name equi-join finds nothing — the keys are dirty.
	res, err = e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.accounts a JOIN legacy.firms f ON a.company = f.firm_name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("dirty equi-join should match nothing, got %v", res.Rows[0][0])
	}
}

func TestCorrelationScoreFilter(t *testing.T) {
	e, ix := corrFixture(t)
	if err := e.DefineCorrelation("m", ix); err != nil {
		t.Fatal(err)
	}
	// Scores are queryable: keep only high-confidence pairs.
	res, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM correlations.m WHERE score >= 0.99")
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM correlations.m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() > all.Rows[0][0].Int() {
		t.Error("score filter must not grow the result")
	}
}

func TestCorrelationLifecycleErrors(t *testing.T) {
	e, ix := corrFixture(t)
	empty := linkage.Build(nil, nil, linkage.DefaultConfig())
	if err := e.DefineCorrelation("empty", empty); err == nil {
		t.Error("empty index must error")
	}
	if err := e.DefineCorrelation("m", ix); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineCorrelation("m", ix); err == nil {
		t.Error("duplicate correlation must error")
	}
	if err := e.DropCorrelation("ghost"); err == nil {
		t.Error("dropping unknown correlation must error")
	}
	if err := e.DropCorrelation("m"); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM correlations.m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("dropped correlation must be empty")
	}
}

func TestCorrelationSourceNameReserved(t *testing.T) {
	e := New()
	squatter := federation.NewCSVSource(CorrelationSourceName, nil)
	if err := e.Register(squatter); err != nil {
		t.Fatal(err)
	}
	ix := linkage.Build(
		[]linkage.Record{{Key: datum.NewInt(1), Text: "alpha"}},
		[]linkage.Record{{Key: datum.NewInt(2), Text: "alpha"}},
		linkage.DefaultConfig())
	err := e.DefineCorrelation("x", ix)
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("conflicting source must be rejected: %v", err)
	}
}

package dsa

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
)

func providerFixture(t *testing.T) *federation.RelationalSource {
	t.Helper()
	src := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(time.Millisecond, 1e6, 1))
	tab, err := src.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "email", Kind: datum.KindString, Nullable: true},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	rows := []datum.Row{
		{datum.NewInt(1), datum.NewString("a@x")},
		{datum.NewInt(2), datum.NewString("b@x")},
		{datum.NewInt(3), datum.Null},
		{datum.NewInt(4), datum.NewString("d@x")},
	}
	for _, r := range rows {
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	src.RefreshStats()
	return src
}

func agreement(obs ...Obligation) *Agreement {
	return &Agreement{
		Name:        "crm-feed",
		Provider:    "crm",
		Consumer:    "dashboard-team",
		Obligations: obs,
		ConsumerTerms: []ConsumerTerm{
			{Kind: "purpose", Text: "analytics only"},
			{Kind: "protection", Text: "no re-export outside the enterprise"},
		},
	}
}

func TestSatisfiedAgreement(t *testing.T) {
	src := providerFixture(t)
	m := NewMonitor(src)
	a := agreement(
		MaxNullFraction{Table: "customers", Column: "email", Max: 0.5},
		MinRows{Table: "customers", Min: 3},
		SchemaStable{Table: "customers", Columns: []string{"id", "email"}},
		MustNotify{Table: "customers"},
		Available{Table: "customers", MaxLatency: time.Second},
	)
	if v := m.Check(context.Background(), a); len(v) != 0 {
		t.Fatalf("violations = %v", v)
	}
}

func TestQualityViolationDetected(t *testing.T) {
	src := providerFixture(t)
	m := NewMonitor(src)
	// 1 of 4 emails NULL → 0.25 > 0.1.
	a := agreement(MaxNullFraction{Table: "customers", Column: "email", Max: 0.1})
	v := m.Check(context.Background(), a)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "null fraction") {
		t.Fatalf("violations = %v", v)
	}
	if !strings.Contains(v[0].String(), "crm-feed") {
		t.Error("violation rendering must name the agreement")
	}
}

func TestPopulationAndSchemaViolations(t *testing.T) {
	src := providerFixture(t)
	m := NewMonitor(src)
	v := m.Check(context.Background(), agreement(
		MinRows{Table: "customers", Min: 100},
		SchemaStable{Table: "customers", Columns: []string{"id", "phone"}},
		MaxNullFraction{Table: "ghost", Column: "x", Max: 1},
	))
	if len(v) != 3 {
		t.Fatalf("violations = %v", v)
	}
	if !strings.Contains(v[1].Detail, "phone") {
		t.Errorf("schema violation = %v", v[1])
	}
}

func TestNotifyObligationAgainstCSVSource(t *testing.T) {
	csv := federation.NewCSVSource("files", nil)
	if _, err := csv.LoadCSV("t", "a\n1"); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(csv)
	a := &Agreement{Name: "x", Provider: "files",
		Obligations: []Obligation{MustNotify{Table: "t"}}}
	v := m.Check(context.Background(), a)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "notification") {
		t.Fatalf("violations = %v", v)
	}
}

func TestAvailabilityBound(t *testing.T) {
	// A slow link breaks a tight availability bound.
	src := federation.NewRelationalSource("slow", federation.FullSQL(),
		netsim.NewLink(100*time.Millisecond, 1e3, 1))
	tab, _ := src.CreateTable(schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}}))
	_ = tab.Insert(datum.Row{datum.NewInt(1)})
	src.RefreshStats()
	m := NewMonitor(src)
	v := m.Check(context.Background(), &Agreement{Name: "x", Provider: "slow",
		Obligations: []Obligation{Available{Table: "t", MaxLatency: time.Millisecond}}})
	if len(v) != 1 || !strings.Contains(v[0].Detail, "probe took") {
		t.Fatalf("violations = %v", v)
	}
}

func TestAvailabilityViolationOnInjectedOutage(t *testing.T) {
	// An injected outage on the provider's link must surface as a DSA
	// availability violation: the probe goes through the same
	// failure-aware transfer path as real queries.
	src := providerFixture(t)
	a := &Agreement{Name: "x", Provider: "crm",
		Obligations: []Obligation{Available{Table: "customers", MaxLatency: time.Second}}}
	m := NewMonitor(src)
	if v := m.Check(context.Background(), a); len(v) != 0 {
		t.Fatalf("healthy provider violated: %v", v)
	}
	src.Link().SetDown(true)
	v := m.Check(context.Background(), a)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "source unavailable (outage)") {
		t.Fatalf("violations = %v", v)
	}
	src.Link().SetDown(false)
	if v := m.Check(context.Background(), a); len(v) != 0 {
		t.Fatalf("recovered provider still violated: %v", v)
	}
}

func TestUnreachableProvider(t *testing.T) {
	m := NewMonitor()
	v := m.Check(context.Background(), agreement(MinRows{Table: "customers", Min: 1}))
	if len(v) != 1 || !strings.Contains(v[0].Detail, "not reachable") {
		t.Fatalf("violations = %v", v)
	}
}

func TestCheckAllAggregates(t *testing.T) {
	src := providerFixture(t)
	m := NewMonitor(src)
	good := agreement(MinRows{Table: "customers", Min: 1})
	bad := agreement(MinRows{Table: "customers", Min: 1000})
	v := m.CheckAll(context.Background(), []*Agreement{good, bad})
	if len(v) != 1 {
		t.Fatalf("violations = %v", v)
	}
}

func TestViolationAppearsAfterDataDecay(t *testing.T) {
	// The point of the monitor: an agreement satisfied today is violated
	// after the provider's data decays — detection is automatic.
	src := providerFixture(t)
	m := NewMonitor(src)
	a := agreement(MaxNullFraction{Table: "customers", Column: "email", Max: 0.3})
	if v := m.Check(context.Background(), a); len(v) != 0 {
		t.Fatalf("initial violations = %v", v)
	}
	// Provider data decays: emails get wiped.
	if _, err := src.Update(context.Background(), "customers",
		func(r datum.Row) bool { return r[0].Int() <= 2 },
		func(r datum.Row) datum.Row { r[1] = datum.Null; return r }); err != nil {
		t.Fatal(err)
	}
	src.RefreshStats()
	if v := m.Check(context.Background(), a); len(v) != 1 {
		t.Fatalf("post-decay violations = %v", v)
	}
}

package warehouse

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
)

func crmSource(t *testing.T) *federation.RelationalSource {
	t.Helper()
	src := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(time.Millisecond, 1e6, 1))
	tab, err := src.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"Ann", "Bob", "Cal"} {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i + 1)), datum.NewString(n)}); err != nil {
			t.Fatal(err)
		}
	}
	src.RefreshStats()
	return src
}

func TestRefreshAndQuery(t *testing.T) {
	src := crmSource(t)
	w, err := New("dw")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFeed(src, "customers"); err != nil {
		t.Fatal(err)
	}
	// Before refresh: empty warehouse, staleness unknown (-1).
	if s := w.Staleness()["customers"]; s != -1 {
		t.Errorf("pre-refresh staleness = %d", s)
	}
	n, err := w.Refresh(context.Background())
	if err != nil || n != 3 {
		t.Fatalf("refresh: n=%d err=%v", n, err)
	}
	r, err := w.Query(context.Background(), "SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
	// ETL paid the source link; local queries must not touch it.
	etlBytes := src.Link().Metrics().BytesShipped
	if etlBytes <= 0 {
		t.Error("ETL must ship bytes over the source link")
	}
	src.Link().Reset()
	if _, err := w.Query(context.Background(), "SELECT * FROM customers"); err != nil {
		t.Fatal(err)
	}
	if src.Link().Metrics().BytesShipped != 0 {
		t.Error("warehouse queries must not touch the source link")
	}
}

func TestStalenessTracking(t *testing.T) {
	src := crmSource(t)
	w, _ := New("dw")
	_ = w.AddFeed(src, "customers")
	if _, err := w.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := w.Staleness()["customers"]; s != 0 {
		t.Errorf("fresh staleness = %d", s)
	}
	// Mutate the source twice.
	_ = src.Insert(context.Background(), "customers", datum.Row{datum.NewInt(4), datum.NewString("Dee")})
	_, _ = src.Update(context.Background(), "customers",
		func(r datum.Row) bool { return r[0].Int() == 1 },
		func(r datum.Row) datum.Row { r[1] = datum.NewString("Anna"); return r })
	if s := w.Staleness()["customers"]; s != 2 {
		t.Errorf("staleness after 2 mutations = %d", s)
	}
	if w.TotalStaleness() != 2 {
		t.Errorf("total staleness = %d", w.TotalStaleness())
	}
	// The warehouse still serves the stale row — that is the point.
	r, _ := w.Query(context.Background(), "SELECT name FROM customers WHERE id = 1")
	if r.Rows[0][0].Str() != "Ann" {
		t.Errorf("warehouse must serve stale data, got %v", r.Rows[0][0])
	}
	// After refresh: staleness back to 0 and data current.
	if _, err := w.RefreshTable(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	if s := w.Staleness()["customers"]; s != 0 {
		t.Errorf("post-refresh staleness = %d", s)
	}
	r, _ = w.Query(context.Background(), "SELECT name FROM customers WHERE id = 1")
	if r.Rows[0][0].Str() != "Anna" {
		t.Errorf("refresh must pick up updates, got %v", r.Rows[0][0])
	}
}

func TestFeedValidation(t *testing.T) {
	src := crmSource(t)
	w, _ := New("dw")
	if err := w.AddFeed(src, "nope"); err == nil {
		t.Error("missing source table must error")
	}
	if err := w.AddFeed(src, "customers"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFeed(src, "customers"); err == nil {
		t.Error("duplicate feed must error")
	}
	if _, err := w.RefreshTable(context.Background(), "ghost"); err == nil {
		t.Error("refreshing unknown feed must error")
	}
	if feeds := w.Feeds(); len(feeds) != 1 || feeds[0] != "customers" {
		t.Errorf("feeds = %v", feeds)
	}
}

func TestWarehouseViewsMirrorMediatedSchema(t *testing.T) {
	src := crmSource(t)
	w, _ := New("dw")
	_ = w.AddFeed(src, "customers")
	if _, err := w.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Engine().DefineView("vips", "SELECT id, name FROM customers WHERE id <= 2"); err != nil {
		t.Fatal(err)
	}
	r, err := w.Query(context.Background(), "SELECT COUNT(*) FROM vips")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("view count = %v", r.Rows[0][0])
	}
}

func TestWarehouseAsReplicaProviderForEngine(t *testing.T) {
	src := crmSource(t)
	e := core.New()
	if err := e.Register(src); err != nil {
		t.Fatal(err)
	}

	w, err := New("dw")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFeed(src, "customers"); err != nil {
		t.Fatal(err)
	}

	// Before the first refresh there is no replica to serve.
	if _, _, ok := w.ReplicaTable("crm", "customers"); ok {
		t.Fatal("unrefreshed feed served as replica")
	}
	if _, err := w.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows, age, ok := w.ReplicaTable("CRM", "customers")
	if !ok || len(rows) != 3 {
		t.Fatalf("replica rows=%d ok=%v", len(rows), ok)
	}
	if age < 0 || age > time.Minute {
		t.Errorf("replica age = %s", age)
	}
	if _, _, ok := w.ReplicaTable("crm", "ghost"); ok {
		t.Error("unknown table served as replica")
	}

	// The engine degrades onto the warehouse copy when the source is down.
	e.SetReplicaProvider(w)
	src.Link().SetDown(true)
	res, err := e.QueryOptsCtx(context.Background(), "SELECT name FROM crm.customers WHERE id >= 2",
		core.QueryOptions{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
	if len(res.ReplicaSources) != 1 || res.ReplicaSources[0] != "crm" {
		t.Errorf("ReplicaSources = %v", res.ReplicaSources)
	}
}

package matview

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

func engineFixture(t *testing.T) (*core.Engine, *federation.RelationalSource) {
	t.Helper()
	e := core.New()
	src := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(time.Millisecond, 1e6, 1))
	tab, err := src.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "region", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []string{"west", "east", "east"} {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i + 1)), datum.NewString(r)}); err != nil {
			t.Fatal(err)
		}
	}
	src.RefreshStats()
	if err := e.Register(src); err != nil {
		t.Fatal(err)
	}
	return e, src
}

func TestMaterializeAndCachedRead(t *testing.T) {
	e, src := engineFixture(t)
	m := NewManager(e)
	v, err := m.Materialize(context.Background(), "east_customers", "SELECT id FROM crm.customers WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 2 || v.Refreshes() != 1 || !v.Fresh() {
		t.Errorf("view state: rows=%d refreshes=%d fresh=%v", v.Rows(), v.Refreshes(), v.Fresh())
	}
	// Cached reads are free on the network.
	src.Link().Reset()
	r, err := m.Read(context.Background(), "east_customers", Cached)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Errorf("cached rows = %d", len(r.Rows))
	}
	if src.Link().Metrics().BytesShipped != 0 {
		t.Error("cached read must not touch the source link")
	}
	// Live reads pay the link.
	r, err = m.Read(context.Background(), "east_customers", Live)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || src.Link().Metrics().BytesShipped == 0 {
		t.Error("live read must touch the source link")
	}
}

func TestStalenessAndRefresh(t *testing.T) {
	e, src := engineFixture(t)
	m := NewManager(e)
	if _, err := m.Materialize(context.Background(), "v", "SELECT id FROM crm.customers WHERE region = 'east'"); err != nil {
		t.Fatal(err)
	}
	// A new east customer arrives; cached view is stale until refresh.
	if err := src.Insert(context.Background(), "customers", datum.Row{datum.NewInt(4), datum.NewString("east")}); err != nil {
		t.Fatal(err)
	}
	m.Invalidate("v")
	v, _ := m.View("v")
	if v.Fresh() {
		t.Error("invalidate must mark stale")
	}
	r, _ := m.Read(context.Background(), "v", Cached)
	if len(r.Rows) != 2 {
		t.Errorf("stale cache must serve old rows, got %d", len(r.Rows))
	}
	r, _ = m.Read(context.Background(), "v", Live)
	if len(r.Rows) != 3 {
		t.Errorf("live read must see new row, got %d", len(r.Rows))
	}
	if err := m.Refresh(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}
	r, _ = m.Read(context.Background(), "v", Cached)
	if len(r.Rows) != 3 || !v.Fresh() {
		t.Errorf("post-refresh cache rows = %d fresh=%v", len(r.Rows), v.Fresh())
	}
}

func TestManagerLifecycleErrors(t *testing.T) {
	e, _ := engineFixture(t)
	m := NewManager(e)
	if _, err := m.Materialize(context.Background(), "v", "SELECT id FROM crm.customers"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Materialize(context.Background(), "V", "SELECT id FROM crm.customers"); err == nil {
		t.Error("duplicate (case-insensitive) must error")
	}
	if _, err := m.Materialize(context.Background(), "bad", "SELECT nope FROM crm.customers"); err != nil {
		// Failed materialization must not leave a registered view.
		if _, ok := m.View("bad"); ok {
			t.Error("failed materialization left residue")
		}
	} else {
		t.Error("bad SQL must fail")
	}
	if err := m.Refresh(context.Background(), "ghost"); err == nil {
		t.Error("refresh of unknown view must error")
	}
	if _, err := m.Read(context.Background(), "ghost", Cached); err == nil {
		t.Error("read of unknown view must error")
	}
	m.Drop("v")
	if _, ok := m.View("v"); ok {
		t.Error("dropped view still visible")
	}
}

func TestAdviseFollowsPaperGuidelines(t *testing.T) {
	cases := []struct {
		s    Scenario
		want Decision
	}{
		// Persistence guidelines win even when virtualization ones
		// also apply (the paper checks them first).
		{Scenario{NeedHistory: true, NeedsLiveData: true}, Persist},
		{Scenario{SourceAccessDenied: true, OneOffOrPrototype: true}, Persist},
		{Scenario{SharedAcrossMarts: true}, Virtualize},
		{Scenario{OneOffOrPrototype: true}, Virtualize},
		{Scenario{NeedsLiveData: true}, Virtualize},
		// Cost fallback.
		{Scenario{ReadsPerUpdate: 100}, Persist},
		{Scenario{ReadsPerUpdate: 0.01}, Virtualize},
	}
	for i, c := range cases {
		got, reason := Advise(c.s)
		if got != c.want {
			t.Errorf("case %d: Advise(%+v) = %v (%s), want %v", i, c.s, got, reason, c.want)
		}
		if reason == "" {
			t.Errorf("case %d: empty reason", i)
		}
	}
	if Persist.String() != "PERSIST" || Virtualize.String() != "VIRTUALIZE" {
		t.Error("decision rendering")
	}
}

func TestRecommendModeCrossover(t *testing.T) {
	// Read-heavy: materialize.
	mode, vCost, mCost := RecommendMode(1000, 1, 10, 10)
	if mode != Cached || mCost >= vCost {
		t.Errorf("read-heavy: mode=%v v=%v m=%v", mode, vCost, mCost)
	}
	// Update-heavy: virtualize.
	mode, vCost, mCost = RecommendMode(1, 1000, 10, 10)
	if mode != Live || vCost >= mCost {
		t.Errorf("update-heavy: mode=%v v=%v m=%v", mode, vCost, mCost)
	}
	// The crossover sits where read and update rates balance the costs.
	mode, _, _ = RecommendMode(10, 10, 5, 5)
	if mode != Cached {
		t.Error("tie must favour the cache (<=)")
	}
}

// TestMaterializeAndDropRetireNoPlans: no compiled plan consults the
// manager, so materializing or dropping a view leaves every cached plan
// serving.
func TestMaterializeAndDropRetireNoPlans(t *testing.T) {
	e, _ := engineFixture(t)
	m := NewManager(e)
	ctx := context.Background()
	const sql = "SELECT id FROM crm.customers WHERE region = 'west'"
	if _, err := e.QueryCtx(ctx, sql); err != nil {
		t.Fatal(err)
	}
	for _, write := range []struct {
		name string
		do   func() error
	}{
		{"Materialize", func() error {
			_, err := m.Materialize(ctx, "east_customers", "SELECT id FROM crm.customers WHERE region = 'east'")
			return err
		}},
		{"Drop", func() error { m.Drop("east_customers"); return nil }},
	} {
		if err := write.do(); err != nil {
			t.Fatal(err)
		}
		res, err := e.QueryCtx(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Errorf("%s retired an unrelated cached plan", write.name)
		}
	}
	if n := e.PlanCacheStats().Invalidations; n != 0 {
		t.Errorf("invalidations = %d, want 0", n)
	}
}

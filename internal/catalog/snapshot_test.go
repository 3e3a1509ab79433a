package catalog

import (
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/schema"
)

func testSource(t *testing.T, name, table string) *SourceCatalog {
	t.Helper()
	sc := NewSourceCatalog(name)
	sc.AddTable(schema.MustTable(table, []schema.Column{
		{Name: "id", Kind: datum.KindInt},
	}), nil)
	return sc
}

func TestCatalogVersionBumps(t *testing.T) {
	g := NewGlobal()
	v0 := g.Version()

	if err := g.AddSource(testSource(t, "crm", "customers")); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v0+1 {
		t.Fatalf("AddSource: version %d, want %d", g.Version(), v0+1)
	}
	if err := g.DefineView("v1", "SELECT id FROM customers"); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v0+2 {
		t.Fatalf("DefineView: version %d, want %d", g.Version(), v0+2)
	}
	g.DropView("v1")
	if g.Version() != v0+3 {
		t.Fatalf("DropView: version %d, want %d", g.Version(), v0+3)
	}
	g.RemoveSource("crm")
	if g.Version() != v0+4 {
		t.Fatalf("RemoveSource: version %d, want %d", g.Version(), v0+4)
	}
	if got := g.Bump(); got != v0+5 {
		t.Fatalf("Bump: version %d, want %d", got, v0+5)
	}
}

func TestFailedMutationDoesNotBump(t *testing.T) {
	g := NewGlobal()
	if err := g.AddSource(testSource(t, "crm", "customers")); err != nil {
		t.Fatal(err)
	}
	v := g.Version()
	if err := g.AddSource(testSource(t, "crm", "other")); err == nil {
		t.Fatal("expected duplicate-source error")
	}
	if g.Version() != v {
		t.Fatalf("failed AddSource bumped version %d -> %d", v, g.Version())
	}
	if err := g.DefineView("x", "SELECT id FROM customers"); err != nil {
		t.Fatal(err)
	}
	v = g.Version()
	if err := g.DefineView("x", "SELECT id FROM customers"); err == nil {
		t.Fatal("expected duplicate-view error")
	}
	if g.Version() != v {
		t.Fatalf("failed DefineView bumped version %d -> %d", v, g.Version())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	g := NewGlobal()
	if err := g.AddSource(testSource(t, "crm", "customers")); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if err := g.DefineView("latecomer", "SELECT id FROM customers"); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.View("latecomer"); ok {
		t.Fatal("old snapshot sees a view defined after it was taken")
	}
	if _, ok := g.Snapshot().View("latecomer"); !ok {
		t.Fatal("new snapshot misses the view")
	}
	if snap.Version() == g.Version() {
		t.Fatal("version did not advance")
	}
	// The old snapshot still resolves what existed at its version.
	if _, err := snap.Resolve("", "customers"); err != nil {
		t.Fatalf("old snapshot lost source table: %v", err)
	}
}

func TestSnapshotConcurrentReadersAndWriters(t *testing.T) {
	g := NewGlobal()
	if err := g.AddSource(testSource(t, "base", "rows")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := g.Snapshot()
				if _, err := snap.Resolve("", "rows"); err != nil {
					t.Error(err)
					return
				}
				_ = snap.ViewNames()
				_ = snap.SourceNames()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := g.DefineView("v", "SELECT id FROM rows"); err != nil {
				t.Error(err)
				return
			}
			g.DropView("v")
		}
	}()
	wg.Wait()
}

func TestChangedSinceScopesByName(t *testing.T) {
	g := NewGlobal()
	if err := g.AddSource(testSource(t, "crm", "customers")); err != nil {
		t.Fatal(err)
	}
	v := g.Version()
	customers := []Name{NameOf("crm", "Customers")}
	bare := []Name{NameOf("", "customers")}
	view := []Name{NameOf("", "V1")}

	if err := g.DefineView("v1", "SELECT id FROM customers"); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if snap.ChangedSince(v, customers) || snap.ChangedSince(v, bare) {
		t.Error("DefineView v1 changed how customers resolves")
	}
	if !snap.ChangedSince(v, view) || snap.ChangedSince(snap.Version(), view) {
		t.Error("DefineView v1 must change v1 as of its own version, and only before it")
	}

	v = g.Version()
	g.Touch(NameOf("crm", "orders"))
	if g.Snapshot().ChangedSince(v, customers) || !g.Snapshot().ChangedSince(v, []Name{NameOf("CRM", "orders")}) {
		t.Error("Touch must change exactly the names it is given")
	}

	v = g.Version()
	g.RemoveSource("crm")
	if snap := g.Snapshot(); !snap.ChangedSince(v, customers) || !snap.ChangedSince(v, bare) || snap.ChangedSince(v, view) {
		t.Error("RemoveSource must change crm.customers and bare customers, and nothing else")
	}

	v = g.Version()
	g.Bump()
	if !g.Snapshot().ChangedSince(v, nil) {
		t.Error("Bump must raise the floor past every earlier version")
	}
	if v0 := snap.Version(); snap.ChangedSince(v0, nil) {
		t.Error("an earlier snapshot must not see a later floor")
	}
}

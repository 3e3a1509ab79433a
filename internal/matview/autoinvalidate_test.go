package matview

import (
	"context"
	"testing"

	"repro/internal/datum"
)

func TestAutoInvalidateMarksStaleOnSourceWrite(t *testing.T) {
	e, src := engineFixture(t)
	m := NewManager(e)
	if _, err := m.Materialize(context.Background(), "v", "SELECT id FROM crm.customers WHERE region = 'east'"); err != nil {
		t.Fatal(err)
	}
	cancel, err := m.AutoInvalidate(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.View("v")
	if !v.Fresh() {
		t.Fatal("fresh after materialize")
	}
	// Any write to the base table stales the cache — no manual call.
	if err := src.Insert(context.Background(), "customers", datum.Row{datum.NewInt(9), datum.NewString("east")}); err != nil {
		t.Fatal(err)
	}
	if v.Fresh() {
		t.Error("auto-invalidation did not fire")
	}
	if err := m.Refresh(context.Background(), "v"); err != nil {
		t.Fatal(err)
	}
	if !v.Fresh() {
		t.Error("refresh must restore freshness")
	}
	r, _ := m.Read(context.Background(), "v", Cached)
	if len(r.Rows) != 3 {
		t.Errorf("refreshed cache rows = %d", len(r.Rows))
	}
	// After cancel, writes no longer invalidate.
	cancel()
	if err := src.Insert(context.Background(), "customers", datum.Row{datum.NewInt(10), datum.NewString("east")}); err != nil {
		t.Fatal(err)
	}
	if !v.Fresh() {
		t.Error("cancelled auto-invalidation still firing")
	}
}

func TestAutoInvalidateUnknownView(t *testing.T) {
	e, _ := engineFixture(t)
	m := NewManager(e)
	if _, err := m.AutoInvalidate(context.Background(), "ghost"); err == nil {
		t.Error("unknown view must error")
	}
}

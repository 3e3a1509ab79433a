package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/storage"
)

func TestSubscribeToSourceTable(t *testing.T) {
	e := newFederation(t)
	var events []storage.Change
	cancel, err := e.Subscribe("crm", "customers", func(c storage.Change) {
		events = append(events, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	crmSrc, _ := e.Source("crm")
	crm := crmSrc.(*federation.RelationalSource)
	if err := crm.Insert(context.Background(), "customers", datum.Row{
		datum.NewInt(99), datum.NewString("Zed"), datum.NewString("north")}); err != nil {
		t.Fatal(err)
	}
	if _, err := crm.Update(context.Background(), "customers",
		func(r datum.Row) bool { return r[0].Int() == 99 },
		func(r datum.Row) datum.Row { r[2] = datum.NewString("south"); return r }); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d: %+v", len(events), events)
	}
	if events[0].Kind != storage.ChangeInsert || events[1].Kind != storage.ChangeUpdate {
		t.Errorf("event kinds = %v %v", events[0].Kind, events[1].Kind)
	}
	cancel()
	_, _ = crm.Delete(context.Background(), "customers", func(r datum.Row) bool { return r[0].Int() == 99 })
	if len(events) != 2 {
		t.Error("cancelled subscription still firing")
	}
}

func TestSubscribeErrors(t *testing.T) {
	e := newFederation(t)
	if _, err := e.Subscribe("ghost", "t", func(storage.Change) {}); err == nil {
		t.Error("unknown source must error")
	}
	if _, err := e.Subscribe("crm", "ghost", func(storage.Change) {}); err == nil {
		t.Error("unknown table must error")
	}
}

func TestDependencySubscribeCoversViewBaseTables(t *testing.T) {
	e := newFederation(t)
	fired := 0
	cancel, err := e.DependencySubscribe(context.Background(),
		"SELECT name, amount FROM customer360", func(storage.Change) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	crmSrc, _ := e.Source("crm")
	crm := crmSrc.(*federation.RelationalSource)
	billingSrc, _ := e.Source("billing")
	billing := billingSrc.(*federation.RelationalSource)
	// A write to either underlying table fires the feed.
	if err := crm.Insert(context.Background(), "customers", datum.Row{
		datum.NewInt(77), datum.NewString("New"), datum.NewString("west")}); err != nil {
		t.Fatal(err)
	}
	if err := billing.Insert(context.Background(), "invoices", datum.Row{
		datum.NewInt(77), datum.NewFloat(5), datum.NewString("open")}); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (one per base-table write)", fired)
	}
}

func TestDependencySubscribeSkipsNonNotifyingSources(t *testing.T) {
	e := newFederation(t)
	// files is a CSVSource with no notification support; subscribing to a
	// query over it must succeed (with no feed from that source).
	cancel, err := e.DependencySubscribe(context.Background(), "SELECT cust_id FROM files.tickets", func(storage.Change) {})
	if err != nil {
		t.Fatalf("csv source should be skipped, got %v", err)
	}
	cancel()
}

func TestNotificationDrivesWarehouseStyleRefreshDecision(t *testing.T) {
	// A subscriber counting changes is the signal a refresh scheduler
	// needs; verify counts match actual mutations.
	src := federation.NewRelationalSource("s", federation.FullSQL(), nil)
	tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: datum.KindInt}}, 0))
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	cancel, err := src.SubscribeTable("t", func(storage.Change) { changes++ })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tab.Truncate()
	if changes != 6 {
		t.Errorf("changes = %d, want 6 (5 inserts + truncate)", changes)
	}
}

// notifySpy is a Notifying source whose subscriptions either fail with a
// given error or are counted, so a test can see what was cancelled.
type notifySpy struct {
	*federation.RelationalSource
	fail          error
	subs, cancels int
}

func (s *notifySpy) SubscribeTable(table string, fn func(storage.Change)) (func(), error) {
	if s.fail != nil {
		return nil, s.fail
	}
	cancel, err := s.RelationalSource.SubscribeTable(table, fn)
	if err != nil {
		return nil, err
	}
	s.subs++
	return func() { s.cancels++; cancel() }, nil
}

// A failing subscription is an error even when its text happens to read
// like "this source has no notifications": only ErrNotifyUnsupported is
// skipped, and the subscriptions already taken are released.
func TestDependencySubscribeSurfacesSubscriptionFailure(t *testing.T) {
	e := New()
	table := func(name string) *federation.RelationalSource {
		src := federation.NewRelationalSource(name, federation.FullSQL(), netsim.LocalLink())
		if _, err := src.CreateTable(schema.MustTable("t", []schema.Column{{Name: "id", Kind: datum.KindInt}})); err != nil {
			t.Fatal(err)
		}
		return src
	}
	good := &notifySpy{RelationalSource: table("good")}
	bad := &notifySpy{RelationalSource: table("bad"), fail: errors.New("table does not support triggers")}
	for _, s := range []federation.Source{good, bad} {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	// UNION ALL keeps the branch order, so good.t subscribes before bad.t.
	_, err := e.DependencySubscribe(context.Background(),
		"SELECT id FROM good.t UNION ALL SELECT id FROM bad.t", func(storage.Change) {})
	if !errors.Is(err, bad.fail) {
		t.Fatalf("err = %v, want the SubscribeTable failure", err)
	}
	if good.subs != 1 || good.cancels != 1 {
		t.Errorf("good.t: %d subscriptions, %d cancelled; want 1 taken and released", good.subs, good.cancels)
	}
}

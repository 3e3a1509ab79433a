package core

import (
	"context"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
)

// semiFixture builds a federation where a tiny filtered probe side joins a
// large build side — the case semi-join reduction exists for.
func semiFixture(t *testing.T, rightRows int, rightCaps federation.Caps) *Engine {
	t.Helper()
	e := New()
	left := federation.NewRelationalSource("dim", federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	lt, err := left.CreateTable(schema.MustTable("picks", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "label", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := lt.Insert(datum.Row{datum.NewInt(int64(i * 100)), datum.NewString("pick")}); err != nil {
			t.Fatal(err)
		}
	}
	left.RefreshStats()

	right := federation.NewRelationalSource("fact", rightCaps, netsim.NewLink(0, 1e6, 1))
	rt, err := right.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "pick_id", Kind: datum.KindInt},
		{Name: "payload", Kind: datum.KindString},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rightRows; i++ {
		if err := rt.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString("payload-payload-payload"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	right.RefreshStats()
	for _, s := range []federation.Source{left, right} {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

const semiQuery = `SELECT p.id, ev.payload FROM dim.picks p
	JOIN fact.events ev ON p.id = ev.pick_id ORDER BY p.id`

func TestSemiJoinShipsOnlyMatchingRows(t *testing.T) {
	e := semiFixture(t, 2000, federation.FullSQL())
	e.ResetMetrics()
	with, err := e.QueryOptsCtx(context.Background(), semiQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withBytes := with.Network.BytesShipped

	e.ResetMetrics()
	without, err := e.QueryOptsCtx(context.Background(), semiQuery, QueryOptions{NoSemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	withoutBytes := without.Network.BytesShipped

	if len(with.Rows) != len(without.Rows) {
		t.Fatalf("semi-join changed results: %d vs %d rows", len(with.Rows), len(without.Rows))
	}
	// 5 probe keys hit ≤5 of 2000 fact rows: the reduction must be large.
	if withBytes*10 >= withoutBytes {
		t.Errorf("semi-join shipped %d, full fetch %d — expected >=10x reduction", withBytes, withoutBytes)
	}
}

func TestSemiJoinCorrectResultContent(t *testing.T) {
	e := semiFixture(t, 500, federation.FullSQL())
	res, err := e.QueryCtx(context.Background(), semiQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Matching keys: 0, 100, 200, 300, 400 (i*100 < 500).
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i*100) {
			t.Errorf("row %d key = %v", i, r[0])
		}
	}
}

func TestSemiJoinSkipsScanOnlySources(t *testing.T) {
	e := semiFixture(t, 300, federation.ScanOnly())
	res, err := e.QueryCtx(context.Background(), semiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSemiJoinKeyOverflowFallsBack(t *testing.T) {
	// More distinct probe keys than the shipping cap: the engine must
	// fall back to a full fetch and still answer correctly.
	e := New()
	left := federation.NewRelationalSource("dim", federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	lt, _ := left.CreateTable(schema.MustTable("picks", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
	}, 0))
	for i := 0; i < 600; i++ { // default cap is 512
		if err := lt.Insert(datum.Row{datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	right := federation.NewRelationalSource("fact", federation.FullSQL(), netsim.NewLink(0, 1e6, 1))
	rt, _ := right.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "pick_id", Kind: datum.KindInt},
	}))
	for i := 0; i < 600; i++ {
		if err := rt.Insert(datum.Row{datum.NewInt(int64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	left.RefreshStats()
	right.RefreshStats()
	_ = e.Register(left)
	_ = e.Register(right)
	res, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM dim.picks p JOIN fact.events ev ON p.id = ev.pick_id")
	if err != nil {
		t.Fatal(err)
	}
	// Matches: even ids 0..598 → 300.
	if res.Rows[0][0].Int() != 300 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestSemiJoinEmptyProbeSide(t *testing.T) {
	e := semiFixture(t, 100, federation.FullSQL())
	res, err := e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM dim.picks p
		JOIN fact.events ev ON p.id = ev.pick_id WHERE p.label = 'nothing-matches'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestSemiJoinWithLeftOuterJoin(t *testing.T) {
	e := semiFixture(t, 100, federation.FullSQL())
	res, err := e.QueryCtx(context.Background(), `SELECT p.id, ev.payload FROM dim.picks p
		LEFT JOIN fact.events ev ON p.id = ev.pick_id ORDER BY p.id`)
	if err != nil {
		t.Fatal(err)
	}
	// All 5 picks survive; only id 0 matches (100..400 >= 100 rows).
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].IsNull() {
		t.Error("id 0 must match")
	}
	for _, r := range res.Rows[1:] {
		if !r[1].IsNull() {
			t.Errorf("unmatched pick %v must be padded", r[0])
		}
	}
}

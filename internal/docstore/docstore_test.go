package docstore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/schema"
)

func doc(id string, fields map[string]datum.Datum, body string) Document {
	return Document{ID: id, Fields: fields, Body: body}
}

func fixture(t *testing.T) *Store {
	t.Helper()
	s := New("docs", nil)
	docs := []Document{
		doc("r1", map[string]datum.Datum{
			"sensor": datum.NewString("wing-a"), "reading": datum.NewInt(42),
		}, "anomaly detected during taxi"),
		doc("r2", map[string]datum.Datum{
			"sensor": datum.NewString("wing-b"), "reading": datum.NewInt(17),
		}, "nominal flight telemetry"),
		doc("r3", map[string]datum.Datum{
			"sensor": datum.NewString("tail"), "note": datum.NewString("inspect"),
		}, "anomaly in tail section during landing"),
	}
	for _, d := range docs {
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := fixture(t)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	d, ok, err := s.Get(context.Background(), "r1")
	if err != nil || !ok || d.Fields["reading"].Int() != 42 {
		t.Errorf("get r1 = %+v ok=%v err=%v", d, ok, err)
	}
	// Mutating the returned doc must not affect the store.
	d.Fields["reading"] = datum.NewInt(0)
	d2, _, _ := s.Get(context.Background(), "r1")
	if d2.Fields["reading"].Int() != 42 {
		t.Error("Get must return a copy")
	}
	if !s.Delete("r1") || s.Delete("r1") {
		t.Error("delete semantics")
	}
	if _, ok, _ := s.Get(context.Background(), "r1"); ok {
		t.Error("deleted doc still visible")
	}
	if err := s.Put(Document{}); err == nil {
		t.Error("empty ID must be rejected")
	}
}

// TestDirectReadsHonorCancellation: Get and Search under a cancelled
// context fail with its error before crossing the link.
func TestDirectReadsHonorCancellation(t *testing.T) {
	s := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Get(ctx, "r1"); !errors.Is(err, context.Canceled) {
		t.Errorf("get: err = %v, want context.Canceled", err)
	}
	if _, err := s.Search(ctx, "anomaly"); !errors.Is(err, context.Canceled) {
		t.Errorf("search: err = %v, want context.Canceled", err)
	}
	if m := s.Link().Metrics(); m.RoundTrips != 0 {
		t.Errorf("cancelled reads made %d round trips", m.RoundTrips)
	}
}

func TestPutReplacesAndReindexes(t *testing.T) {
	s := fixture(t)
	_ = s.Put(doc("r2", nil, "replaced content entirely"))
	if ids, _ := s.Search(context.Background(), "nominal"); len(ids) != 0 {
		t.Errorf("old tokens must be unindexed, got %v", ids)
	}
	if ids, _ := s.Search(context.Background(), "replaced"); len(ids) != 1 || ids[0] != "r2" {
		t.Errorf("new tokens must be indexed, got %v", ids)
	}
	if s.Len() != 3 {
		t.Errorf("replace must not grow the store: %d", s.Len())
	}
}

func TestSearchConjunctive(t *testing.T) {
	s := fixture(t)
	if ids, _ := s.Search(context.Background(), "anomaly"); len(ids) != 2 {
		t.Errorf("anomaly → %v", ids)
	}
	if ids, _ := s.Search(context.Background(), "anomaly", "tail"); len(ids) != 1 || ids[0] != "r3" {
		t.Errorf("anomaly+tail → %v", ids)
	}
	if ids, _ := s.Search(context.Background(), "anomaly", "nominal"); len(ids) != 0 {
		t.Errorf("contradictory terms → %v", ids)
	}
	// Field values are searchable too.
	if ids, _ := s.Search(context.Background(), "wing-a"); len(ids) != 1 || ids[0] != "r1" {
		t.Errorf("field token search → %v", ids)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("Wing-A: anomaly! 42")
	want := []string{"wing", "a", "anomaly", "42"}
	if fmt.Sprint(toks) != fmt.Sprint(want) {
		t.Errorf("tokens = %v", toks)
	}
	if len(Tokenize("")) != 0 {
		t.Error("empty input")
	}
}

func TestImposeSchemaOnRead(t *testing.T) {
	s := fixture(t)
	sch := schema.MustTable("readings", []schema.Column{
		{Name: "sensor", Kind: datum.KindString, Nullable: true},
		{Name: "value", Kind: datum.KindInt, Nullable: true},
	})
	rows, errs, err := s.Impose(context.Background(), sch, map[string]string{"value": "reading"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || errs != 0 {
		t.Fatalf("rows=%d errs=%d", len(rows), errs)
	}
	// r3 has no reading → NULL; sorted by ID so r3 is last.
	if !rows[2][1].IsNull() {
		t.Errorf("missing field must impose NULL, got %v", rows[2][1])
	}
	if rows[0][0].Str() != "wing-a" || rows[0][1].Int() != 42 {
		t.Errorf("row 0 = %v", rows[0])
	}
}

func TestImposeCoercionErrors(t *testing.T) {
	s := New("docs", nil)
	_ = s.Put(doc("x", map[string]datum.Datum{"v": datum.NewString("not-a-number")}, ""))
	sch := schema.MustTable("t", []schema.Column{{Name: "v", Kind: datum.KindInt, Nullable: true}})
	rows, errs, err := s.Impose(context.Background(), sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs != 1 || !rows[0][0].IsNull() {
		t.Errorf("coercion failure must yield NULL + error count: rows=%v errs=%d", rows, errs)
	}
}

func TestAsSourceInMediator(t *testing.T) {
	s := fixture(t)
	sch := schema.MustTable("readings", []schema.Column{
		{Name: "sensor", Kind: datum.KindString, Nullable: true},
		{Name: "value", Kind: datum.KindInt, Nullable: true},
	})
	src := s.AsSource(sch, map[string]string{"value": "reading"})
	e := core.New()
	if err := e.Register(src); err != nil {
		t.Fatal(err)
	}
	r, err := e.QueryCtx(context.Background(), "SELECT sensor FROM docs.readings WHERE value > 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "wing-a" {
		t.Errorf("rows = %v", r.Rows)
	}
	// Aggregates run at the mediator but still work.
	r, err = e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM docs.readings")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

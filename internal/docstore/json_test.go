package docstore

import (
	"context"
	"testing"

	"repro/internal/datum"
	"repro/internal/schema"
)

func TestPutJSONFlattensNestedObjects(t *testing.T) {
	s := New("docs", nil)
	err := s.PutJSON("order-1", `{
		"customer": {"name": "Globex", "address": {"city": "Springfield"}},
		"total": 125.5,
		"items": ["widget", "gadget"],
		"paid": true,
		"notes": null,
		"body": "rush order for Globex"
	}`)
	if err != nil {
		t.Fatal(err)
	}
	d, ok, err := s.Get(context.Background(), "order-1")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("doc missing")
	}
	if d.Fields["customer.name"].Str() != "Globex" {
		t.Errorf("nested field = %v", d.Fields["customer.name"])
	}
	if d.Fields["customer.address.city"].Str() != "Springfield" {
		t.Errorf("deep field = %v", d.Fields["customer.address.city"])
	}
	if d.Fields["total"].Float() != 125.5 {
		t.Errorf("number = %v", d.Fields["total"])
	}
	if d.Fields["items.0"].Str() != "widget" || d.Fields["items.1"].Str() != "gadget" {
		t.Errorf("array fields = %v %v", d.Fields["items.0"], d.Fields["items.1"])
	}
	if !d.Fields["paid"].Bool() {
		t.Error("bool field")
	}
	if !d.Fields["notes"].IsNull() {
		t.Error("null field")
	}
	if d.Body != "rush order for Globex" {
		t.Errorf("body = %q", d.Body)
	}
	// Keyword search sees both body and field tokens.
	if ids, _ := s.Search(context.Background(), "springfield"); len(ids) != 1 {
		t.Errorf("field token search = %v", ids)
	}
	if ids, _ := s.Search(context.Background(), "rush", "globex"); len(ids) != 1 {
		t.Errorf("body search = %v", ids)
	}
}

func TestPutJSONIntegerStaysInt(t *testing.T) {
	s := New("docs", nil)
	if err := s.PutJSON("x", `{"qty": 7}`); err != nil {
		t.Fatal(err)
	}
	d, _, _ := s.Get(context.Background(), "x")
	if d.Fields["qty"].Kind() != datum.KindInt || d.Fields["qty"].Int() != 7 {
		t.Errorf("qty = %v (%v)", d.Fields["qty"], d.Fields["qty"].Kind())
	}
}

func TestPutJSONErrors(t *testing.T) {
	s := New("docs", nil)
	if err := s.PutJSON("bad", `{invalid`); err == nil {
		t.Error("bad JSON must error")
	}
	if err := s.PutJSON("arr", `[1,2,3]`); err == nil {
		t.Error("non-object JSON must error")
	}
}

func TestJSONThenImposeSchema(t *testing.T) {
	// The NETMARK loop: ingest arbitrary JSON, impose a schema at read.
	s := New("docs", nil)
	_ = s.PutJSON("o1", `{"customer": {"name": "Acme"}, "total": 10}`)
	_ = s.PutJSON("o2", `{"customer": {"name": "Globex"}, "total": 20.5}`)
	_ = s.PutJSON("o3", `{"customer": {"name": "Initech"}}`) // no total
	sch := schema.MustTable("orders", []schema.Column{
		{Name: "customer", Kind: datum.KindString, Nullable: true},
		{Name: "total", Kind: datum.KindFloat, Nullable: true},
	})
	rows, errs, err := s.Impose(context.Background(), sch, map[string]string{
		"customer": "customer.name",
		"total":    "total",
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs != 0 || len(rows) != 3 {
		t.Fatalf("rows=%d errs=%d", len(rows), errs)
	}
	if rows[0][0].Str() != "Acme" || rows[0][1].Float() != 10 {
		t.Errorf("row 0 = %v", rows[0])
	}
	if !rows[2][1].IsNull() {
		t.Errorf("missing total must impose NULL, got %v", rows[2][1])
	}
}

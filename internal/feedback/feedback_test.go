package feedback

import (
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

func TestObserveLookupAndGeneration(t *testing.T) {
	clock := netsim.NewVirtualClock(time.Unix(0, 0))
	s := NewStore(clock)
	k := Shape{Source: "crm", Table: "events"}

	if _, ok := s.Lookup(k); ok {
		t.Fatal("lookup before any observation must miss")
	}

	// An observation in line with the plan's estimate: no drift bump.
	s.Observe(k.Key(), 1000, 900)
	if g := s.Generation(); g != 0 {
		t.Fatalf("accurate observation bumped generation to %d", g)
	}
	est, ok := s.Lookup(k)
	if !ok {
		t.Fatal("lookup after observation missed")
	}
	if est.Rows < 900 || est.Rows > 1100 {
		t.Fatalf("first observation Rows = %.0f, want ~1000", est.Rows)
	}
	if est.Confidence <= 0 || est.Confidence > 1 {
		t.Fatalf("confidence = %v out of range", est.Confidence)
	}

	// A second, wildly larger observation drags the EWMA up and crosses
	// the drift threshold relative to the published value.
	s.Observe(k.Key(), 100000, 1000)
	if g := s.Generation(); g == 0 {
		t.Fatal("10x-off observation did not bump generation")
	}
	est2, _ := s.Lookup(k)
	if est2.Rows <= est.Rows {
		t.Fatalf("EWMA did not move up: %.0f -> %.0f", est.Rows, est2.Rows)
	}
	if est2.Confidence <= est.Confidence {
		t.Fatalf("confidence did not grow: %v -> %v", est.Confidence, est2.Confidence)
	}
}

func TestFirstObservationFarFromPlanBumps(t *testing.T) {
	s := NewStore(netsim.NewVirtualClock(time.Unix(0, 0)))
	s.Observe(Key{Source: "s", Table: "t"}, 40000, 50)
	if s.Generation() == 0 {
		t.Fatal("first observation 800x off the planned estimate must bump the generation")
	}
}

func TestConfidenceDecay(t *testing.T) {
	clock := netsim.NewVirtualClock(time.Unix(0, 0))
	s := NewStore(clock)
	k := Shape{Source: "s", Table: "t"}
	s.Observe(k.Key(), 500, 500)
	if _, ok := s.Lookup(k); !ok {
		t.Fatal("fresh estimate missing")
	}
	clock.Advance(2 * time.Minute)
	mid, ok := s.Lookup(k)
	if !ok {
		t.Fatal("estimate expired too early")
	}
	fresh, _ := func() (Estimate, bool) { s.Observe(k.Key(), 500, 500); return s.Lookup(k) }()
	if mid.Confidence >= fresh.Confidence {
		t.Fatalf("confidence did not decay: aged=%v fresh=%v", mid.Confidence, fresh.Confidence)
	}
	clock.Advance(time.Hour)
	if _, ok := s.Lookup(k); ok {
		t.Fatal("hour-old estimate should have decayed below the floor")
	}
}

func TestNetworkFactor(t *testing.T) {
	s := NewStore(netsim.NewVirtualClock(time.Unix(0, 0)))
	if f := s.NetworkFactor("s"); f != 1 {
		t.Fatalf("unobserved factor = %v, want 1", f)
	}
	// Source consistently 3x slower than the link model predicts.
	for i := 0; i < 20; i++ {
		s.ObserveLatency("s", 10*time.Millisecond, 30*time.Millisecond)
	}
	if f := s.NetworkFactor("s"); f < 2.5 || f > 3.5 {
		t.Fatalf("factor after 3x-slow observations = %v, want ~3", f)
	}
	// Absurd outliers are clamped.
	for i := 0; i < 50; i++ {
		s.ObserveLatency("s", time.Millisecond, time.Hour)
	}
	if f := s.NetworkFactor("s"); f > latMax {
		t.Fatalf("factor exceeded clamp: %v", f)
	}
}

func scanNode() *plan.Scan {
	return &plan.Scan{Source: "CRM", Table: "Orders", Cols: []plan.ColMeta{{Name: "id"}, {Name: "amt"}}}
}

func TestSignatureMasksAndSorts(t *testing.T) {
	eq := func(col string, v int64) sqlparse.Expr {
		return &sqlparse.BinaryExpr{Op: sqlparse.OpEq,
			Left:  &sqlparse.ColumnRef{Column: col},
			Right: &sqlparse.Literal{Value: datum.NewInt(v)}}
	}
	s := scanNode()
	a := &plan.Filter{Input: s, Cond: &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: eq("id", 1), Right: eq("amt", 2)}}
	b := &plan.Filter{Input: scanNode(), Cond: &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: eq("amt", 99), Right: eq("id", 7)}}

	ka, ok := Signature(&plan.Remote{Source: "CRM", Child: a})
	if !ok {
		t.Fatal("signature of remote(filter(scan)) missing")
	}
	kb, ok := Signature(b)
	if !ok {
		t.Fatal("signature of filter(scan) missing")
	}
	if ka != kb {
		t.Fatalf("same-shape predicates with different constants and order split keys:\n%v\n%v", ka, kb)
	}
	if ka.Source != "crm" || ka.Table != "orders" {
		t.Fatalf("key not normalized: %+v", ka)
	}

	// Params mask identically to literals.
	p := &plan.Filter{Input: scanNode(), Cond: &sqlparse.BinaryExpr{Op: sqlparse.OpEq,
		Left: &sqlparse.ColumnRef{Column: "id"}, Right: &sqlparse.Param{Index: 1}}}
	kp, _ := Signature(p)
	kl, _ := Signature(&plan.Filter{Input: scanNode(), Cond: eq("id", 42)})
	if kp != kl {
		t.Fatalf("param and literal masked differently: %v vs %v", kp, kl)
	}
}

func TestSignatureRejectsCardinalityChangingShapes(t *testing.T) {
	s := scanNode()
	if _, ok := Signature(&plan.Limit{Input: s, Count: 10}); ok {
		t.Fatal("limit must not have a scan signature")
	}
	if _, ok := Signature(&plan.Scan{}); ok {
		t.Fatal("FROM-less dual must not have a signature")
	}
}

func TestSignatureInAndKeyFilterShareKey(t *testing.T) {
	ref := &sqlparse.ColumnRef{Column: "id"}
	in := &plan.Filter{Input: scanNode(), Cond: &sqlparse.InExpr{Child: ref,
		List: []sqlparse.Expr{&sqlparse.Literal{Value: datum.NewInt(1)}, &sqlparse.Literal{Value: datum.NewInt(2)}}}}
	kf := &plan.Filter{Input: scanNode(), Cond: &sqlparse.KeyFilterExpr{Child: ref}}
	ki, _ := Signature(in)
	kk, _ := Signature(kf)
	if ki != kk {
		t.Fatalf("IN-list and bloom key filter split streams: %v vs %v", ki, kk)
	}
}

// TestSignatureColumnOperandsSplitStreams: a BETWEEN whose bounds are
// columns, and an IN-list with a column item, are other streams than their
// all-constant forms, while predicates over constants only keep the keys
// they always had.
func TestSignatureColumnOperandsSplitStreams(t *testing.T) {
	col := func(name string) sqlparse.Expr { return &sqlparse.ColumnRef{Column: name} }
	lit := func(v int64) sqlparse.Expr { return &sqlparse.Literal{Value: datum.NewInt(v)} }
	sig := func(cond sqlparse.Expr) string {
		t.Helper()
		k, ok := Signature(&plan.Filter{Input: scanNode(), Cond: cond})
		if !ok {
			t.Fatalf("no signature for %s", cond.SQL())
		}
		return k.Sig
	}
	for _, tc := range []struct {
		name            string
		columns, consts sqlparse.Expr
	}{
		{"BETWEEN",
			&sqlparse.BetweenExpr{Child: col("id"), Lo: col("lo"), Hi: col("hi")},
			&sqlparse.BetweenExpr{Child: col("id"), Lo: lit(1), Hi: lit(4)}},
		{"BETWEEN one column bound",
			&sqlparse.BetweenExpr{Child: col("id"), Lo: lit(1), Hi: col("amt")},
			&sqlparse.BetweenExpr{Child: col("id"), Lo: lit(1), Hi: lit(4)}},
		{"NOT IN",
			&sqlparse.InExpr{Child: col("id"), List: []sqlparse.Expr{lit(1), col("amt")}, Not: true},
			&sqlparse.InExpr{Child: col("id"), List: []sqlparse.Expr{lit(1), lit(2)}, Not: true}},
	} {
		if a, b := sig(tc.columns), sig(tc.consts); a == b {
			t.Errorf("%s: %s and %s share the stream %q", tc.name, tc.columns.SQL(), tc.consts.SQL(), a)
		}
	}

	// Keys of constant-only predicates, as they were rendered before column
	// operands were: feedback recorded under them stays addressable.
	for _, tc := range []struct {
		cond sqlparse.Expr
		want string
	}{
		{&sqlparse.BetweenExpr{Child: col("id"), Lo: lit(1), Hi: lit(4)}, "(id between ? ?)"},
		{&sqlparse.BetweenExpr{Child: col("id"), Lo: &sqlparse.Param{Index: 1}, Hi: lit(4), Not: true}, "(id notbetween ? ?)"},
		{&sqlparse.InExpr{Child: col("id"), List: []sqlparse.Expr{lit(1), lit(2), lit(3)}}, "(id in(?))"},
		{&sqlparse.InExpr{Child: col("id"), List: []sqlparse.Expr{lit(1)}, Not: true}, "(id notin(?))"},
		{&sqlparse.BinaryExpr{Op: sqlparse.OpAnd,
			Left:  &sqlparse.BinaryExpr{Op: sqlparse.OpGt, Left: &sqlparse.ColumnRef{Table: "O", Column: "Amt"}, Right: lit(5)},
			Right: &sqlparse.IsNullExpr{Child: col("id"), Not: true}},
			"(id notnull)|(o.amt > ?)"},
		{&sqlparse.FuncExpr{Name: "UPPER", Args: []sqlparse.Expr{col("name")}}, "upper(name)"},
	} {
		if got := sig(tc.cond); got != tc.want {
			t.Errorf("%s: signature %q, want %q", tc.cond.SQL(), got, tc.want)
		}
	}
	// Mixed lists name their column items in place.
	if got, want := sig(&sqlparse.InExpr{Child: col("id"), List: []sqlparse.Expr{lit(1), col("amt")}}), "(id in(?,amt))"; got != want {
		t.Errorf("mixed IN-list signature %q, want %q", got, want)
	}
}

// TestRendererReusesItsBuffer: once a renderer's buffer has grown, rendering
// the same shapes again and looking them up in the store allocates nothing,
// and a lookup by a rendered shape finds what an owned key recorded. That
// holds for a scan whose names have capitals too: the renderer lowers a
// name once, not per rendering, and the shape keys lowercase names.
func TestRendererReusesItsBuffer(t *testing.T) {
	for _, names := range [][2]string{{"crm", "orders"}, {"CRM", "Orders"}} {
		scan := &plan.Scan{Source: names[0], Table: names[1], Cols: []plan.ColMeta{{Name: "id"}, {Name: "amt"}}}
		f := &plan.Filter{Input: scan, Cond: &sqlparse.BinaryExpr{Op: sqlparse.OpAnd,
			Left:  &sqlparse.BinaryExpr{Op: sqlparse.OpEq, Left: &sqlparse.ColumnRef{Column: "id"}, Right: &sqlparse.Literal{Value: datum.NewInt(1)}},
			Right: &sqlparse.BetweenExpr{Child: &sqlparse.ColumnRef{Column: "amt"}, Lo: &sqlparse.Param{Index: 1}, Hi: &sqlparse.Param{Index: 2}}}}
		store := NewStore(netsim.NewVirtualClock(time.Unix(0, 0)))
		var r Renderer
		sh, _ := r.Signature(f)
		store.Observe(*store.Stream(sh), 40, 40)
		allocs := testing.AllocsPerRun(100, func() {
			r.Reset()
			sh, ok := r.Signature(f)
			if !ok {
				t.Fatal("no signature")
			}
			if _, ok := store.Lookup(sh); !ok {
				t.Fatal("a rendered shape missed what it recorded")
			}
			store.Observe(*store.Stream(sh), 40, 40)
		})
		if allocs != 0 {
			t.Errorf("%s.%s: rendering and looking up a known shape allocates %.1f objects, want 0", names[0], names[1], allocs)
		}
		if store.Len() != 1 {
			t.Errorf("%s.%s: one shape recorded %d keys", names[0], names[1], store.Len())
		}
		if k, _ := Signature(f); k != sh.Key() || k.Source != "crm" || k.Table != "orders" {
			t.Errorf("%s.%s: owned key %+v differs from the rendered shape %+v, or is not lowercased", names[0], names[1], k, sh.Key())
		}
	}
}

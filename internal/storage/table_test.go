package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/datum"
	"repro/internal/schema"
)

func custSchema() *schema.Table {
	return schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString, Nullable: true},
		{Name: "region", Kind: datum.KindString, Nullable: true},
	}, 0)
}

func row(id int64, name, region string) datum.Row {
	return datum.Row{datum.NewInt(id), datum.NewString(name), datum.NewString(region)}
}

// probe runs Probe with empty buffers, so every call also exercises their
// growth.
func probe(tab *Table, col int, keys ...datum.Datum) ([]datum.Row, bool) {
	return tab.Probe(col, keys, nil, nil)
}

func TestInsertAndScan(t *testing.T) {
	tab := NewTable(custSchema())
	if err := tab.InsertBatch([]datum.Row{row(1, "Ann", "west"), row(2, "Bob", "east")}); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	var seen []string
	tab.Scan(func(r datum.Row) bool {
		seen = append(seen, r[1].Str())
		return true
	})
	if strings.Join(seen, ",") != "Ann,Bob" {
		t.Errorf("scan order = %v", seen)
	}
}

func TestInsertValidatesSchema(t *testing.T) {
	tab := NewTable(custSchema())
	if err := tab.Insert(datum.Row{datum.NewString("x"), datum.Null, datum.Null}); err == nil {
		t.Error("kind mismatch must be rejected")
	}
	if err := tab.Insert(datum.Row{datum.NewInt(1)}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	tab := NewTable(custSchema())
	if err := tab.Insert(row(1, "Ann", "west")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(1, "Dup", "east")); err == nil {
		t.Error("duplicate primary key must be rejected")
	}
	if tab.Len() != 1 {
		t.Error("failed insert must not leave residue")
	}
}

func TestInsertClonesRow(t *testing.T) {
	tab := NewTable(custSchema())
	r := row(1, "Ann", "west")
	if err := tab.Insert(r); err != nil {
		t.Fatal(err)
	}
	r[1] = datum.NewString("Mutated")
	snap := tab.Snapshot()
	if snap[0][1].Str() != "Ann" {
		t.Error("Insert must clone the caller's row")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.InsertBatch([]datum.Row{row(1, "Ann", "west"), row(2, "Bob", "east"), row(3, "Cal", "east")})
	v0 := tab.Version()
	n, err := tab.Update(
		func(r datum.Row) bool { return r[2].Str() == "east" },
		func(r datum.Row) datum.Row { r[2] = datum.NewString("south"); return r },
	)
	if err != nil || n != 2 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	if tab.Version() <= v0 {
		t.Error("version must advance on update")
	}
	if d := tab.Delete(func(r datum.Row) bool { return r[0].Int() == 1 }); d != 1 {
		t.Errorf("delete = %d", d)
	}
	if tab.Len() != 2 {
		t.Errorf("len after delete = %d", tab.Len())
	}
	// Primary index must still work after rebuild.
	_ = tab.InsertBatch([]datum.Row{row(4, "Dee", "north"), row(5, "Eli", "north")})
	rows, ok := probe(tab, 0, datum.NewInt(2))
	if !ok || len(rows) != 1 || rows[0][2].Str() != "south" {
		t.Errorf("probe after rebuild: ok=%v rows=%v", ok, rows)
	}
	if rows, _ := probe(tab, 0, datum.NewInt(1)); len(rows) != 0 {
		t.Errorf("probe finds deleted row: %v", rows)
	}
}

func TestUpdateRejectsBadRow(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.Insert(row(1, "Ann", "west"))
	_, err := tab.Update(
		func(datum.Row) bool { return true },
		func(r datum.Row) datum.Row { r[0] = datum.Null; return r },
	)
	if err == nil {
		t.Error("update producing NULL key must fail schema check")
	}
}

// An Update is all or nothing. One whose fn breaks the schema on a later
// row, or a unique index on any, leaves every row, index and the version
// as they were, so no change notice fires for a write that did not happen.
func TestUpdateAllOrNothing(t *testing.T) {
	tab := NewTable(custSchema())
	for id := int64(1); id <= 20; id++ {
		if err := tab.Insert(row(id, "n", "west")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("by_region", []string{"region"}, false); err != nil {
		t.Fatal(err)
	}
	v0 := tab.Version()
	unchanged := func(step string) {
		t.Helper()
		north := 0
		tab.Scan(func(r datum.Row) bool {
			if r[2].Str() == "north" {
				north++
			}
			return true
		})
		if rows, _ := probe(tab, 2, datum.NewString("north")); north != 0 || len(rows) != 0 {
			t.Errorf("%s: scan finds %d north rows, probe %d; want 0 and 0", step, north, len(rows))
		}
		for id := int64(1); id <= 20; id++ {
			if rows, _ := probe(tab, 0, datum.NewInt(id)); len(rows) != 1 {
				t.Errorf("%s: primary key %d finds %d rows", step, id, len(rows))
			}
		}
		if v := tab.Version(); v != v0 {
			t.Errorf("%s: version %d, want %d", step, v, v0)
		}
	}

	n, err := tab.Update(func(datum.Row) bool { return true }, func(r datum.Row) datum.Row {
		r[2] = datum.NewString("north")
		if r[0].Int() == 2 {
			r[0] = datum.Null
		}
		return r
	})
	if err == nil || n != 0 {
		t.Errorf("NULL key on row 2: n=%d err=%v, want 0 and an error", n, err)
	}
	unchanged("NULL key")

	n, err = tab.Update(func(r datum.Row) bool { return r[0].Int() == 2 }, func(r datum.Row) datum.Row {
		r[0], r[2] = datum.NewInt(1), datum.NewString("north")
		return r
	})
	if err == nil || n != 0 {
		t.Errorf("id 2 to id 1: n=%d err=%v, want 0 and a duplicate-key error", n, err)
	}
	unchanged("duplicate primary key")
}

// A snapshot is the heap's own header slice, so no write may reach it: not
// an Insert into the slice's spare capacity, not an Update, Delete or
// Truncate. Appending to a snapshot must not reach the table either.
func TestSnapshotUnchangedByWrites(t *testing.T) {
	tab := NewTable(custSchema())
	for id := int64(1); id <= 7; id++ { // seven headers in room for eight
		if err := tab.Insert(row(id, "n", "west")); err != nil {
			t.Fatal(err)
		}
	}
	writes := []struct {
		name  string
		write func()
	}{
		{"Insert", func() { _ = tab.Insert(row(8, "n", "west")) }},
		{"Update", func() {
			if _, err := tab.Update(func(r datum.Row) bool { return r[0].Int()%2 == 0 }, func(r datum.Row) datum.Row {
				r[2] = datum.NewString("east")
				return r
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"Delete", func() { tab.Delete(func(r datum.Row) bool { return r[0].Int() <= 3 }) }},
		{"Truncate", tab.Truncate},
	}
	for _, w := range writes {
		snap := tab.Snapshot()
		want, headers := fmt.Sprint(snap), slices.Clone(snap)
		w.write()
		if got := fmt.Sprint(snap); got != want {
			t.Errorf("after %s the snapshot reads %s, want %s", w.name, got, want)
		}
		for i := range snap {
			if &snap[i][0] != &headers[i][0] {
				t.Errorf("after %s snapshot row %d is another row", w.name, i)
			}
		}
		if w.name != "Delete" {
			continue
		}
		// The compacted heap has room to spare: an append to its snapshot
		// must take its own, and the next Insert must not overwrite it.
		grown := append(tab.Snapshot(), row(99, "mine", "x"))
		_ = tab.Insert(row(9, "n", "west"))
		if got := grown[len(grown)-1][0].Int(); got != 99 {
			t.Errorf("a row appended to a snapshot became id %d after an Insert", got)
		}
		if rows, _ := probe(tab, 0, datum.NewInt(99)); tab.Len() != 6 || len(rows) != 0 {
			t.Errorf("appending to a snapshot reached the table: %d rows", tab.Len())
		}
	}
}

func TestSecondaryIndexAndLookup(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.InsertBatch([]datum.Row{
		row(1, "Ann", "west"), row(2, "Bob", "east"), row(3, "Cal", "east"), row(4, "Dee", "north"),
		row(5, "Eli", "south"), row(6, "Fay", "south"), row(7, "Gus", "west"), row(8, "Hal", "east"),
	})
	for id := int64(9); id <= 16; id++ {
		_ = tab.Insert(row(id, "Zed", "far"))
	}
	if _, ok := probe(tab, 2, datum.NewString("east")); ok {
		t.Error("probe without index must report ok=false")
	}
	if err := tab.CreateIndex("by_region", []string{"region"}, false); err != nil {
		t.Fatal(err)
	}
	rows, ok := probe(tab, 2, datum.NewString("east"))
	if !ok || len(rows) != 3 || rows[0][0].Int() != 2 || rows[1][0].Int() != 3 || rows[2][0].Int() != 8 {
		t.Errorf("probe east: ok=%v rows=%v, want ids 2,3,8", ok, rows)
	}
	// Two keys, one repeated and one absent: heap order across keys, each
	// row once.
	rows, _ = probe(tab, 2, datum.NewString("west"), datum.NewString("east"), datum.NewString("west"), datum.NewString("mars"))
	var ids []int64
	for _, r := range rows {
		ids = append(ids, r[0].Int())
	}
	if !slices.Equal(ids, []int64{1, 2, 3, 7, 8}) {
		t.Errorf("probe west,east ids = %v", ids)
	}
	if rows, ok := probe(tab, 2, datum.Null); !ok || len(rows) != 0 {
		t.Errorf("NULL key: ok=%v rows=%v, want indexed and empty", ok, rows)
	}
	if _, ok := probe(tab, 0, datum.NewInt(1), datum.NewInt(2), datum.NewInt(3), datum.NewInt(4), datum.NewInt(5)); ok {
		t.Error("five keys over sixteen rows is past the key share: the caller must scan")
	}
	if _, ok := probe(tab, 1, datum.NewString("Ann")); ok {
		t.Error("probe on an unindexed column must report ok=false")
	}
	if err := tab.CreateIndex("id_region", []string{"id", "name"}, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := probe(tab, 1, datum.NewString("Ann")); ok {
		t.Error("a two-column index must not serve a one-column probe")
	}
	if err := tab.CreateIndex("by_region", []string{"region"}, false); err == nil {
		t.Error("duplicate index name must error")
	}
	if err := tab.CreateIndex("bad", []string{"nope"}, false); err == nil {
		t.Error("index on missing column must error")
	}
}

func TestUniqueSecondaryIndexOverExistingData(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.InsertBatch([]datum.Row{row(1, "Ann", "west"), row(2, "Ann", "east")})
	if err := tab.CreateIndex("uname", []string{"name"}, true); err == nil {
		t.Error("unique index over duplicate data must fail")
	}
	_ = tab.Delete(func(r datum.Row) bool { return r[0].Int() == 2 })
	if err := tab.CreateIndex("uname", []string{"name"}, true); err != nil {
		t.Fatalf("unique index after dedup: %v", err)
	}
	if err := tab.Insert(row(3, "Ann", "south")); err == nil {
		t.Error("unique index must reject duplicate insert")
	}
}

func TestTruncate(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.Insert(row(1, "Ann", "west"))
	tab.Truncate()
	if tab.Len() != 0 {
		t.Error("truncate must empty the table")
	}
	if err := tab.Insert(row(1, "Ann", "west")); err != nil {
		t.Errorf("insert after truncate: %v", err)
	}
}

func TestStats(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.InsertBatch([]datum.Row{
		row(1, "Ann", "west"), row(2, "Bob", "east"), row(3, "Cal", "east"),
	})
	_ = tab.Insert(datum.Row{datum.NewInt(4), datum.Null, datum.NewString("east")})
	st := tab.Stats()
	if st.Rows != 4 {
		t.Errorf("rows = %d", st.Rows)
	}
	if st.Cols[0].Distinct != 4 || st.Cols[2].Distinct != 2 {
		t.Errorf("distinct: id=%d region=%d", st.Cols[0].Distinct, st.Cols[2].Distinct)
	}
	if st.Cols[1].NullFrac != 0.25 {
		t.Errorf("null frac = %v", st.Cols[1].NullFrac)
	}
	if st.Cols[0].Min.Int() != 1 || st.Cols[0].Max.Int() != 4 {
		t.Error("min/max")
	}
	if st.RowWidth <= 0 {
		t.Error("row width")
	}
	empty := NewTable(custSchema()).Stats()
	if empty.Rows != 0 || empty.RowWidth <= 0 {
		t.Error("empty table stats")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tab := NewTable(custSchema())
	_ = tab.InsertBatch([]datum.Row{row(1, "a", "r"), row(2, "b", "r"), row(3, "c", "r")})
	n := 0
	tab.Scan(func(datum.Row) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("scan visited %d rows, want 2", n)
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	sch := schema.MustTable("t", []schema.Column{{Name: "v", Kind: datum.KindInt}})
	tab := NewTable(sch)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tab.Insert(datum.Row{datum.NewInt(int64(g*1000 + i))})
				tab.Scan(func(datum.Row) bool { return false })
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 800 {
		t.Errorf("len = %d, want 800", tab.Len())
	}
}

// Property: every row inserted with a distinct key is retrievable by key.
func TestLookupProperty(t *testing.T) {
	f := func(keys []int64) bool {
		tab := NewTable(custSchema())
		seen := map[int64]bool{}
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := tab.Insert(row(k, "n", "r")); err != nil {
				return false
			}
		}
		for k := range seen {
			rows, ok := probe(tab, 0, datum.NewInt(k))
			if len(seen) < probeMaxKeyShare {
				if ok {
					return false
				}
				continue
			}
			if !ok || len(rows) != 1 || rows[0][0].Int() != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The index keeps no hashes and no keys: INT keys that share a float image
// stay apart, a FLOAT key meets exactly the INT rows of its value, and a
// probe across several head doublings still lists every duplicate in heap
// order.
func TestProbeEqualitySemantics(t *testing.T) {
	sch := schema.MustTable("t", []schema.Column{
		{Name: "k", Kind: datum.KindInt, Nullable: true},
		{Name: "n", Kind: datum.KindInt},
	})
	tab := NewTable(sch)
	if err := tab.CreateIndex("k", []string{"k"}, false); err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 53
	keys := []datum.Datum{datum.NewInt(big), datum.NewInt(big + 1), datum.Null, datum.NewInt(17)}
	for i := 0; i < 400; i++ {
		if err := tab.Insert(datum.Row{keys[i%len(keys)], datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(name string, rows []datum.Row, rem ...int) {
		t.Helper()
		var exp []int64
		for i := 0; i < 400; i++ {
			if slices.Contains(rem, i%len(keys)) {
				exp = append(exp, int64(i))
			}
		}
		var got []int64
		for _, r := range rows {
			got = append(got, r[1].Int())
		}
		if !slices.Equal(got, exp) {
			t.Errorf("%s: got %d rows %v..., want %d", name, len(got), got[:min(len(got), 8)], len(exp))
		}
	}
	rows, _ := probe(tab, 0, datum.NewInt(big))
	want("2^53", rows, 0)
	rows, _ = probe(tab, 0, datum.NewInt(big+1))
	want("2^53+1", rows, 1)
	rows, _ = probe(tab, 0, datum.NewFloat(float64(big)))
	want("2^53 as FLOAT equals INT 2^53 only", rows, 0)
	rows, _ = probe(tab, 0, datum.NewFloat(17), datum.NewInt(17), datum.Null)
	want("17.0, 17, NULL", rows, 3)
	if rows, _ = probe(tab, 0, datum.NewString("17")); len(rows) != 0 {
		t.Errorf("STRING key over INT column matched %d rows", len(rows))
	}
}

func TestSortRows(t *testing.T) {
	rows := []datum.Row{row(3, "c", "r"), row(1, "a", "r"), row(2, "b", "r")}
	SortRows(rows, []int{0})
	if rows[0][0].Int() != 1 || rows[2][0].Int() != 3 {
		t.Errorf("sorted order wrong: %v", rows)
	}
}

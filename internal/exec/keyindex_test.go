package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Differential tests for keyIndex's users. Each compares the indexed
// implementation with the naive structure it replaced — a linear scan for
// IN, one map bucket per hash for the join build, the semi-join key set and
// the group table — and asserts not just the same answers but the same
// order.

// twoTo53 and twoTo53+1 are distinct INTs that hash alike (numerics hash
// through their float64 image): a full-hash collision between unequal keys.
const twoTo53 = int64(1) << 53

// squash relinks every position of ix into a single chain, the worst slot
// collision there is.
func squash(ix *keyIndex) {
	hashes := ix.hashes[:ix.n]
	*ix = keyIndex{head: make([]int32, 1), next: make([]int32, len(hashes)), hashes: hashes, shift: 64}
	for _, h := range hashes {
		ix.add(h)
	}
}

// --- (a) IN membership ---

// refIn is `v [NOT] IN (items)` by the book: the items one after another
// under SQL's three-valued logic.
func refIn(v datum.Datum, items []datum.Datum, not bool) datum.Datum {
	if v.IsNull() {
		return datum.Null
	}
	sawNull := false
	for _, c := range items {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if datum.Compare(v, c) == 0 {
			return datum.NewBool(!not)
		}
	}
	if sawNull {
		return datum.Null
	}
	return datum.NewBool(not)
}

func sameTruth(a, b datum.Datum) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Bool() == b.Bool()
}

// inPool mixes every kind, INT/FLOAT pairs that compare equal, and unequal
// INTs with one hash.
var inPool = []datum.Datum{
	datum.Null,
	datum.NewInt(0), datum.NewInt(1), datum.NewInt(2), datum.NewInt(3), datum.NewInt(-4), datum.NewInt(250),
	datum.NewInt(twoTo53), datum.NewInt(twoTo53 + 1),
	datum.NewFloat(1), datum.NewFloat(2.5), datum.NewFloat(-4), datum.NewFloat(float64(twoTo53)),
	datum.NewFloat(math.Inf(1)), datum.NewFloat(math.NaN()),
	datum.NewString(""), datum.NewString("1"), datum.NewString("a"), datum.NewString("west"),
	datum.NewBool(true), datum.NewBool(false),
	datum.NewTime(time.Date(2005, 6, 14, 0, 0, 0, 0, time.UTC)),
}

var inCols = []plan.ColMeta{{Table: "t", Name: "v"}, {Table: "t", Name: "w"}}

// checkIn compiles `v [NOT] IN (items)` and compares it with refIn for
// every value of the pool as v, through Compile and again with the set's
// index squashed to one chain.
func checkIn(t *testing.T, items []datum.Datum, not bool) {
	t.Helper()
	in := &sqlparse.InExpr{Child: &sqlparse.ColumnRef{Column: "v"}, List: literalList(nil, items), Not: not}
	compiled, err := Compile(nil, in, inCols)
	if err != nil {
		t.Fatal(err)
	}
	squashed, err := Compile(nil, in, inCols)
	if err != nil {
		t.Fatal(err)
	}
	if squashed.set == nil {
		t.Fatalf("an all-literal list of %d items did not compile to a set", len(items))
	}
	squash(&squashed.set.ix)
	for _, v := range inPool {
		want := refIn(v, items, not)
		for name, f := range map[string]*Expr{"compiled": compiled, "squashed": squashed} {
			got, err := f.Eval(datum.Row{v, datum.Null})
			if err != nil {
				t.Fatalf("%s: %v IN %v: %v", name, v, items, err)
			}
			if !sameTruth(got, want) {
				t.Errorf("%s: %v IN %v (not=%v) = %v, want %v", name, v, items, not, got, want)
			}
		}
	}
}

func TestInListMatchesLinearScan(t *testing.T) {
	i, f, s := datum.NewInt, datum.NewFloat, datum.NewString
	table := [][]datum.Datum{
		{},
		{i(1)},
		{f(1)},                  // 1 IN (1.0)
		{i(1), i(1), i(1)},      // duplicates
		{datum.Null},            // only NULL: every miss is NULL
		{datum.Null, i(1)},      // a hit after the NULL is still TRUE
		{i(3), datum.Null},      // a miss with a NULL in the list is NULL
		{s("1")},                // '1' is not 1
		{s("a"), i(2), f(2.5)},  // mixed kinds
		{i(twoTo53)},            // twoTo53+1 shares the hash and must miss
		{i(twoTo53 + 1), i(-4)}, // FLOAT 2^53 equals INT 2^53+1 under Compare
		{f(math.NaN()), f(math.Inf(1))},
		{datum.NewBool(true), datum.NewTime(time.Date(2005, 6, 14, 0, 0, 0, 0, time.UTC))},
	}
	// Values outside the pool never match, so padding changes no answer; it
	// lengthens every case past inSetScanMax, onto the index.
	pad := []datum.Datum{s("pad0"), s("pad1"), s("pad2")}
	for _, items := range table {
		for _, not := range []bool{false, true} {
			checkIn(t, items, not)
			checkIn(t, append(append([]datum.Datum{}, items...), pad...), not)
		}
	}

	rng := rand.New(rand.NewSource(15))
	for c := 0; c < 400; c++ {
		items := make([]datum.Datum, rng.Intn(40))
		for k := range items {
			items[k] = inPool[rng.Intn(len(inPool))]
		}
		checkIn(t, items, rng.Intn(2) == 0)
	}
}

// TestInListManyKeysSmallTable puts 4096 keys behind a 2-slot table: every
// probe walks a chain of ~2000 stored hashes and must still find exactly
// the members.
func TestInListManyKeysSmallTable(t *testing.T) {
	const n = 4096
	vals := make([]datum.Datum, n)
	for k := range vals {
		vals[k] = datum.NewInt(int64(2 * k))
	}
	set := (&compiler{}).newInSet(literalList(nil, vals))
	hashes := set.ix.hashes
	set.ix = keyIndex{head: make([]int32, 2), next: make([]int32, n), hashes: hashes, shift: 63}
	for _, h := range hashes {
		set.ix.add(h)
	}
	for k := int64(0); k < 2*n; k++ {
		if got, want := set.contains(datum.NewInt(k), datum.NewInt(k).Hash()), k%2 == 0; got != want {
			t.Fatalf("contains(%d) = %v, want %v", k, got, want)
		}
	}
}

// A list with any item that is not a literal keeps the per-row loop, its
// results and its evaluation order: an item after the match is never
// evaluated, an erroring item before it fails the row.
func TestInListNonLiteralItemTakesLoop(t *testing.T) {
	col := func(name string) sqlparse.Expr { return &sqlparse.ColumnRef{Column: name} }
	lit := func(v datum.Datum) sqlparse.Expr { return &sqlparse.Literal{Value: v} }
	list := []sqlparse.Expr{lit(datum.NewInt(5)), col("w"), lit(datum.Null)}
	if (&compiler{}).allConstant(list) {
		t.Fatal("a list with a column reference counts as all literals")
	}
	for _, not := range []bool{false, true} {
		f, err := Compile(nil, &sqlparse.InExpr{Child: col("v"), List: list, Not: not}, inCols)
		if err != nil {
			t.Fatal(err)
		}
		if f.set != nil {
			t.Fatal("a list with a column reference compiled to a constant set")
		}
		for _, v := range inPool {
			for _, w := range inPool {
				got, err := f.Eval(datum.Row{v, w})
				if err != nil {
					t.Fatal(err)
				}
				if want := refIn(v, []datum.Datum{datum.NewInt(5), w, datum.Null}, not); !sameTruth(got, want) {
					t.Errorf("%v IN (5, %v, NULL) (not=%v) = %v, want %v", v, w, not, got, want)
				}
			}
		}
	}

	divZero, err := sqlparse.ParseExpr("1 / (v - v)")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Compile(nil, &sqlparse.InExpr{Child: col("v"), List: []sqlparse.Expr{lit(datum.NewInt(1)), divZero}}, inCols)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Eval(datum.Row{datum.NewInt(1), datum.Null}); err != nil || !got.Bool() {
		t.Errorf("1 IN (1, 1/0) = %v, %v; want TRUE before the division is evaluated", got, err)
	}
	if _, err := f.Eval(datum.Row{datum.NewInt(2), datum.Null}); err == nil {
		t.Error("2 IN (1, 1/0) evaluated without the division-by-zero error")
	}
}

// --- (b) join build ---

// joinKeyRows makes n rows (k1, k2, id) whose keys repeat, go NULL, cross
// INT/FLOAT and collide on the full hash.
func joinKeyRows(rng *rand.Rand, n int) []datum.Row {
	distinct := n/3 + 1
	rows := make([]datum.Row, n)
	for i := range rows {
		var k1 datum.Datum
		switch r := rng.Intn(20); {
		case r == 0:
			k1 = datum.Null
		case r < 3:
			k1 = datum.NewInt(twoTo53 + int64(rng.Intn(2)))
		case r < 6:
			k1 = datum.NewFloat(float64(rng.Intn(distinct)))
		case r < 8:
			k1 = datum.NewString(fmt.Sprint(rng.Intn(distinct)))
		default:
			k1 = datum.NewInt(int64(rng.Intn(distinct)))
		}
		k2 := datum.NewInt(int64(rng.Intn(2)))
		if rng.Intn(25) == 0 {
			k2 = datum.Null
		}
		rows[i] = datum.Row{k1, k2, datum.NewInt(int64(i))}
	}
	return rows
}

// refJoin is the build the index replaced — a map from key hash to the
// positions holding it, in arrival order — and its probe.
func refJoin(build []datum.Row, probe Batch, nkeys int, leftJoin bool) Batch {
	key := func(r datum.Row) (datum.Row, bool) {
		for _, d := range r[:nkeys] {
			if d.IsNull() {
				return nil, false
			}
		}
		return r[:nkeys], true
	}
	buckets := make(map[uint64][]int32)
	for i, r := range build {
		if k, ok := key(r); ok {
			buckets[hashKey(k)] = append(buckets[hashKey(k)], int32(i))
		}
	}
	var out Batch
	for _, l := range probe {
		matched := false
		if k, ok := key(l); ok {
			for _, idx := range buckets[hashKey(k)] {
				if datum.RowsEqual(k, build[idx][:nkeys]) {
					matched = true
					out = append(out, append(append(datum.Row{}, l...), build[idx]...))
				}
			}
		}
		if leftJoin && !matched {
			out = append(out, appendNulls(append(datum.Row{}, l...), 3))
		}
	}
	return out
}

func TestJoinBuildMatchesMapBuild(t *testing.T) {
	cols := []plan.ColMeta{{Table: "t", Name: "k1"}, {Table: "t", Name: "k2"}, {Table: "t", Name: "id"}}
	var keyFns []Expr
	for _, name := range []string{"k1", "k2"} {
		f, err := Compile(nil, &sqlparse.ColumnRef{Column: name}, cols)
		if err != nil {
			t.Fatal(err)
		}
		keyFns = append(keyFns, *f)
	}
	rng := rand.New(rand.NewSource(15))
	// Sizes on both sides of parallelMinRows: below it every worker count
	// takes the sequential link.
	for _, n := range []int{0, 1, 5, 300, parallelMinRows, 3 * parallelMinRows} {
		build := joinKeyRows(rng, n)
		probe := Batch(joinKeyRows(rng, 500))
		for nkeys := 1; nkeys <= 2; nkeys++ {
			for _, leftJoin := range []bool{false, true} {
				want := rowsToString(refJoin(build, probe, nkeys, leftJoin))
				for _, workers := range []int{1, 2, 4} {
					scratch := GetScratch()
					var tbl joinTable
					if err := buildJoinTable(&tbl, scratch, build, keyFns[:nkeys], workers); err != nil {
						t.Fatal(err)
					}
					var block []datum.Datum
					got, err := tbl.probeBatch(scratch, probe, keyFns[:nkeys], nil, leftJoin, 3, make(datum.Row, nkeys), &block, nil)
					if err != nil {
						t.Fatal(err)
					}
					if rowsToString(got) != want {
						t.Errorf("rows=%d keys=%d left=%v workers=%d: the %d joined rows, or their order, differ from the map build's",
							n, nkeys, leftJoin, workers, len(got))
					}
					PutScratch(scratch)
				}
			}
		}
	}
}

// --- (c) semi-join key collection ---

// e18Fixture is the E18 cross-shard join's data in exec-test form:
// crm.customers with seeded regions and segments, four billing.invoices
// per customer.
func e18Fixture(tb testing.TB, customers int) (*catalog.Global, *localRuntime) {
	g := catalog.NewGlobal()
	rt := &localRuntime{tables: map[string]*storage.Table{}}
	custSchema := schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString},
		{Name: "segment", Kind: datum.KindString},
	}, 0)
	invSchema := schema.MustTable("invoices", []schema.Column{
		{Name: "inv_id", Kind: datum.KindInt},
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
		{Name: "status", Kind: datum.KindString},
	}, 0)
	crm := catalog.NewSourceCatalog("crm")
	crm.AddTable(custSchema, nil)
	billing := catalog.NewSourceCatalog("billing")
	billing.AddTable(invSchema, nil)
	for _, src := range []*catalog.SourceCatalog{crm, billing} {
		if err := g.AddSource(src); err != nil {
			tb.Fatal(err)
		}
	}
	regions := []string{"west", "east", "north", "south"}
	segments := []string{"enterprise", "midmarket", "smb"}
	statuses := []string{"paid", "open", "overdue"}
	rng := rand.New(rand.NewSource(1))
	ct, it := storage.NewTable(custSchema), storage.NewTable(invSchema)
	for i := 1; i <= customers; i++ {
		if err := ct.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewString(fmt.Sprintf("cust-%d", i)),
			datum.NewString(regions[rng.Intn(len(regions))]), datum.NewString(segments[rng.Intn(len(segments))])}); err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := it.Insert(datum.Row{datum.NewInt(int64(4*i + j)), datum.NewInt(int64(i)),
				datum.NewFloat(float64(10 + rng.Intn(990))), datum.NewString(statuses[rng.Intn(len(statuses))])}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	rt.tables["crm.customers"] = ct
	rt.tables["billing.invoices"] = it
	return g, rt
}

// e18Join is the E18 join as the optimizer leaves it for the executor:
// customers filtered at crm on the probe side, invoices behind a Remote
// that accepts a key filter, hinted for reduction.
func e18Join(tb testing.TB, g *catalog.Global, custWhere string) *plan.Join {
	p := buildPlan(tb, g, "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id")
	var cust, inv *plan.Scan
	var cond sqlparse.Expr
	plan.Walk(p, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			if x.Table == "customers" {
				cust = x
			} else {
				inv = x
			}
		case *plan.Join:
			cond = x.Cond
		}
	})
	where, err := sqlparse.ParseExpr(custWhere)
	if err != nil {
		tb.Fatal(err)
	}
	j := plan.NewJoin(nil, sqlparse.JoinInner,
		&plan.Remote{Source: "crm", Child: &plan.Filter{Input: cust, Cond: where}},
		&plan.Remote{Source: "billing", Child: inv, AllowKeyFilter: true}, cond)
	j.SemiJoin = plan.SemiJoinReduceRight
	return j
}

// refDistinctKeys is the key collection the index replaced: one bucket of
// seen values per hash.
func refDistinctKeys(rows []datum.Row, keyFn *Expr) (vals []datum.Datum, hashes []uint64) {
	seen := make(map[uint64][]datum.Datum)
	for _, r := range rows {
		v, _ := keyFn.Eval(r)
		if v.IsNull() {
			continue
		}
		h := v.Hash()
		dup := false
		for _, prev := range seen[h] {
			if datum.Compare(prev, v) == 0 {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], v)
		vals = append(vals, v)
		hashes = append(hashes, h)
	}
	return vals, hashes
}

func bloomOf(hashes []uint64) *bloom.Filter {
	f := bloom.New(len(hashes), bloom.DefaultFPRate, bloom.DefaultSeed)
	for _, h := range hashes {
		f.Add(h)
	}
	return f
}

func TestDistinctKeysMatchMapDedup(t *testing.T) {
	_, rt := e18Fixture(t, 3000)
	cols := []plan.ColMeta{{Name: "inv_id"}, {Name: "cust_id"}, {Name: "amount"}, {Name: "status"}}
	keyFn, err := Compile(nil, &sqlparse.ColumnRef{Column: "cust_id"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	// Probe with invoices: every key four times over, a quarter of them
	// (the bloom tier's ~750) and a few NULLs and hash-colliding strays.
	var rows []datum.Row
	for _, r := range rt.tables["billing.invoices"].Snapshot() {
		if r[1].Int()%4 == 0 {
			rows = append(rows, r)
		}
	}
	for _, k := range []datum.Datum{datum.Null, datum.NewInt(twoTo53), datum.NewInt(twoTo53 + 1), datum.NewFloat(8), datum.Null} {
		rows = append(rows, datum.Row{datum.NewInt(0), k, datum.NewFloat(0), datum.NewString("")})
	}
	wantVals, wantHashes := refDistinctKeys(rows, keyFn)

	scratch := GetScratch()
	defer PutScratch(scratch)
	got, fits, err := distinctKeys(scratch, rows, keyFn)
	if err != nil || !fits {
		t.Fatalf("distinctKeys: fits=%v err=%v", fits, err)
	}
	if len(got.vals) != len(wantVals) || len(got.hashes()) != len(wantHashes) {
		t.Fatalf("%d keys and %d hashes, want %d of each", len(got.vals), len(got.hashes()), len(wantVals))
	}
	for i := range wantVals {
		if got.vals[i].Kind() != wantVals[i].Kind() || datum.Compare(got.vals[i], wantVals[i]) != 0 || got.hashes()[i] != wantHashes[i] {
			t.Fatalf("key %d is %v (hash %#x), want %v (hash %#x)", i, got.vals[i], got.hashes()[i], wantVals[i], wantHashes[i])
		}
	}
	gotBloom, wantBloom := bloomOf(got.hashes()), bloomOf(wantHashes)
	if gotBloom.WireSize() != wantBloom.WireSize() || !bytes.Equal(gotBloom.Marshal(), wantBloom.Marshal()) {
		t.Error("the bloom filter over the indexed key set differs from the one over the map's")
	}
	for _, v := range wantVals {
		if !gotBloom.ContainsHash(v.Hash()) {
			t.Fatalf("bloom filter lost key %v", v)
		}
	}

	// Collecting keys allocates nothing per key once the scratch is warm.
	if allocs := testing.AllocsPerRun(10, func() {
		scratch.Reset()
		if _, _, err := distinctKeys(scratch, rows, keyFn); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("collecting %d distinct keys allocates %.0f objects per run, want none per key", len(wantVals), allocs)
	}
}

func TestDistinctKeysStopAtBloomCap(t *testing.T) {
	keyFn, err := Compile(nil, &sqlparse.ColumnRef{Column: "k"}, []plan.ColMeta{{Name: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, plan.DefaultBloomKeyCap+1)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i))}
	}
	if keys, fits, err := distinctKeys(nil, rows[:plan.DefaultBloomKeyCap], keyFn); err != nil || !fits || len(keys.vals) != plan.DefaultBloomKeyCap {
		t.Errorf("at the cap: %d keys, fits=%v, err=%v", len(keys.vals), fits, err)
	}
	if _, fits, err := distinctKeys(nil, rows, keyFn); err != nil || fits {
		t.Errorf("one key past the cap: fits=%v, err=%v", fits, err)
	}
}

// shippedRuntime records the subtree each RunRemote ships.
type shippedRuntime struct {
	*localRuntime
	shipped []plan.Node
}

func (rt *shippedRuntime) RunRemote(ctx context.Context, source string, subtree plan.Node) ([]datum.Row, error) {
	rt.shipped = append(rt.shipped, subtree)
	return rt.localRuntime.RunRemote(ctx, source, subtree)
}

// TestSemiJoinTierShipsOnlyItsOwnPayload runs the E18 join at the tier
// boundary: maxKeys distinct keys ship as an IN-list of exactly that many
// literals, one more ships a bloom filter and no IN-list at all.
func TestSemiJoinTierShipsOnlyItsOwnPayload(t *testing.T) {
	g, local := e18Fixture(t, 3000)
	const maxKeys = 200
	for _, tc := range []struct {
		keys      int
		wantBloom bool
	}{{maxKeys, false}, {maxKeys + 1, true}} {
		rt := &shippedRuntime{localRuntime: local}
		j := e18Join(t, g, fmt.Sprintf("c.id <= %d", tc.keys))
		it, err := BuildBatch(context.Background(), j, rt, Options{MaxSemiJoinKeys: maxKeys})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DrainBatches(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4*tc.keys {
			t.Errorf("%d keys joined %d rows, want %d", tc.keys, len(rows), 4*tc.keys)
		}
		reduced, ok := rt.shipped[len(rt.shipped)-1].(*plan.Filter)
		if !ok {
			t.Fatalf("%d keys: the last fetch shipped %T, want the reducing Filter", tc.keys, rt.shipped[len(rt.shipped)-1])
		}
		switch cond := reduced.Cond.(type) {
		case *sqlparse.InExpr:
			if tc.wantBloom || len(cond.List) != tc.keys {
				t.Errorf("%d keys shipped an IN-list of %d literals", tc.keys, len(cond.List))
			}
		case *sqlparse.KeyFilterExpr:
			if !tc.wantBloom {
				t.Errorf("%d keys shipped a bloom filter, want the IN-list", tc.keys)
			}
		default:
			t.Errorf("%d keys shipped %T", tc.keys, cond)
		}
	}
}

// --- microbenchmarks ---

// BenchmarkInList filters the 12 000-invoice relation of a 3000-customer
// CRM by `cust_id IN (k1..kn)` — the source-side half of a semi-join.
func BenchmarkInList(b *testing.B) {
	_, rt := e18Fixture(b, 3000)
	in := Batch(rt.tables["billing.invoices"].Snapshot())
	cols := []plan.ColMeta{{Name: "inv_id"}, {Name: "cust_id"}, {Name: "amount"}, {Name: "status"}}
	for _, n := range []int{1, 2, 4, 8, 250, 512} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			keys := make([]datum.Datum, n)
			for k := range keys {
				keys[k] = datum.NewInt(int64(1 + k*(3000/n)))
			}
			pred, err := Compile(nil, &sqlparse.InExpr{Child: &sqlparse.ColumnRef{Column: "cust_id"}, List: literalList(nil, keys)}, cols)
			if err != nil {
				b.Fatal(err)
			}
			out := make(Batch, 0, len(in))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, err = FilterBatch(pred, in, out[:0]); err != nil {
					b.Fatal(err)
				}
			}
			if len(out) != 4*n {
				b.Fatalf("kept %d rows, want %d", len(out), 4*n)
			}
		})
	}
}

// BenchmarkJoinBuild builds the hash-join table over one INT key column,
// from the 4-row tables of point lookups to a 16 000-row report join, with
// a per-query scratch recycled between builds as the engine does.
func BenchmarkJoinBuild(b *testing.B) {
	keyFn, err := Compile(nil, &sqlparse.ColumnRef{Column: "k"}, []plan.ColMeta{{Name: "k"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 4000, 16000} {
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = datum.Row{datum.NewInt(int64(i / 4))}
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", n, workers), func(b *testing.B) {
				scratch := new(Scratch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var tbl joinTable
					if err := buildJoinTable(&tbl, scratch, rows, []Expr{*keyFn}, workers); err != nil {
						b.Fatal(err)
					}
					scratch.Reset()
				}
			})
		}
	}
}

// BenchmarkGroupTable groups 16 000 rows by one INT key and folds COUNT(*)
// and SUM per row — one op is one aggregation's worth of table work, at
// the report queries' handful of groups and at one group per four rows,
// with a per-query scratch recycled between ops as the engine does. The
// table is sized from an exact estimate, or from none (it then doubles
// from its default capacity).
func BenchmarkGroupTable(b *testing.B) {
	const n = 16000
	specs := []plan.AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: &sqlparse.ColumnRef{Column: "x"}}}
	for _, groups := range []int{12, n / 4} {
		keys, args := make(datum.Row, n), make(datum.Row, n+1)
		hashes := make([]uint64, n)
		for i := range keys {
			keys[i], args[i] = datum.NewInt(int64(i%groups)), datum.NewInt(int64(i))
			hashes[i] = hashKey(keys[i : i+1])
		}
		for _, estimate := range []int{groups, 0} {
			b.Run(fmt.Sprintf("groups=%d/estimate=%d", groups, estimate), func(b *testing.B) {
				scratch := new(Scratch)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					t := newGroupTable(scratch, 1, specs, estimate)
					for r := 0; r < n; r++ {
						if err := t.fold(keys[r:r+1], hashes[r], r, args[r:r+2]); err != nil {
							b.Fatal(err)
						}
					}
					if t.len() != groups {
						b.Fatalf("%d groups, want %d", t.len(), groups)
					}
					scratch.Reset()
				}
			})
		}
	}
}

// --- (d) grouping: GROUP BY and SELECT DISTINCT ---

// groupRows makes n rows (k1, k2, x, y): NULL-heavy keys that also repeat,
// cross INT/FLOAT (1 groups with 1.0) and collide on the full hash (2^53
// and 2^53+1 are two groups), over enough distinct values that the table
// outgrows its index many times; x is an INT that is sometimes
// NULL, sometimes a FLOAT and sometimes one of the colliding pair, y a
// FLOAT whose sum depends on the order it is folded in. No key is FLOAT
// 2^53: it equals both INTs of the pair, so which group it joins is a
// matter of candidate order, not of grouping.
func groupRows(rng *rand.Rand, n int) []datum.Row {
	distinct := n / 6
	rows := make([]datum.Row, n)
	for i := range rows {
		var k1 datum.Datum
		switch r := rng.Intn(20); {
		case r < 5:
			k1 = datum.Null
		case r < 7:
			k1 = datum.NewInt(twoTo53 + int64(rng.Intn(2)))
		case r < 10:
			k1 = datum.NewFloat(float64(rng.Intn(distinct)))
		case r < 12:
			k1 = datum.NewString(fmt.Sprint(rng.Intn(distinct)))
		default:
			k1 = datum.NewInt(int64(rng.Intn(distinct)))
		}
		k2 := datum.NewInt(int64(rng.Intn(3)))
		if rng.Intn(4) == 0 {
			k2 = datum.Null
		}
		var x datum.Datum
		switch r := rng.Intn(20); {
		case r < 2:
			x = datum.Null
		case r < 4:
			x = datum.NewInt(twoTo53 + int64(rng.Intn(2)))
		case r == 4:
			x = datum.NewFloat(float64(rng.Intn(50)) / 4)
		default:
			x = datum.NewInt(int64(rng.Intn(50)))
		}
		rows[i] = datum.Row{k1, k2, x, datum.NewFloat(rng.Float64() * 1e6 / 3)}
	}
	return rows
}

// refGroupBy is the grouping the table replaced — a map from key hash to
// the groups holding it, in first-seen order — with every aggregate
// computed by the book from the group's argument values in arrival order.
// The first nkeys columns are the key; argCol[j] is spec j's argument.
func refGroupBy(rows []datum.Row, nkeys int, specs []plan.AggSpec, argCol []int) []datum.Row {
	type group struct {
		key  datum.Row
		rows []datum.Row
	}
	buckets := make(map[uint64][]*group)
	var order []*group
	for _, r := range rows {
		key := r[:nkeys]
		var grp *group
		for _, cand := range buckets[hashKey(key)] {
			if datum.RowsEqual(cand.key, key) {
				grp = cand
				break
			}
		}
		if grp == nil {
			grp = &group{key: key}
			buckets[hashKey(key)] = append(buckets[hashKey(key)], grp)
			order = append(order, grp)
		}
		grp.rows = append(grp.rows, r)
	}
	out := make([]datum.Row, len(order))
	for i, grp := range order {
		out[i] = append(datum.Row{}, grp.key...)
		for j, sp := range specs {
			if sp.Star {
				out[i] = append(out[i], datum.NewInt(int64(len(grp.rows))))
				continue
			}
			var vals []datum.Datum
		next:
			for _, r := range grp.rows {
				v := r[argCol[j]]
				if v.IsNull() {
					continue
				}
				if sp.Distinct {
					for _, prev := range vals {
						if datum.Equal(prev, v) {
							continue next
						}
					}
				}
				vals = append(vals, v)
			}
			res := datum.Null
			allInt, sumI, sumF := true, int64(0), 0.0
			for _, v := range vals {
				f, _ := v.AsFloat()
				sumF += f
				if v.Kind() == datum.KindInt {
					sumI += v.Int()
				} else {
					allInt = false
				}
				switch {
				case sp.Func == "MIN" && (res.IsNull() || datum.Compare(v, res) < 0),
					sp.Func == "MAX" && (res.IsNull() || datum.Compare(v, res) > 0):
					res = v
				}
			}
			switch {
			case sp.Func == "COUNT":
				res = datum.NewInt(int64(len(vals)))
			case len(vals) == 0:
			case sp.Func == "SUM" && allInt:
				res = datum.NewInt(sumI)
			case sp.Func == "SUM":
				res = datum.NewFloat(sumF)
			case sp.Func == "AVG":
				res = datum.NewFloat(sumF / float64(len(vals)))
			}
			out[i] = append(out[i], res)
		}
	}
	return out
}

// sameRows reports whether a and b hold the same values of the same kinds
// in the same order; FLOATs must agree to the bit.
func sameRows(a, b []datum.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, d := range a[i] {
			o := b[i][j]
			if d.Kind() != o.Kind() || datum.Compare(d, o) != 0 ||
				(d.Kind() == datum.KindFloat && math.Float64bits(d.Float()) != math.Float64bits(o.Float())) {
				return false
			}
		}
	}
	return true
}

// groupCols is the schema of groupRows; its first width columns are what a
// flakyRuntime holding rows cut to that width serves.
var groupCols = []plan.ColMeta{{Name: "k1"}, {Name: "k2"}, {Name: "x"}, {Name: "y", Kind: datum.KindFloat}}

func groupScan(width int) plan.Node {
	return &plan.Remote{Source: "s", Child: &plan.Scan{Source: "s", Table: "t", Cols: groupCols[:width]}}
}

// runGrouping drains node at the given worker count and batch size, with
// a query scratch as the engine runs it. Grouped rows come from the
// scratch, so they are copied out before it recycles, as the engine copies
// its results.
func runGrouping(t *testing.T, node plan.Node, rt Runtime, degree, batch int) []datum.Row {
	t.Helper()
	scratch := GetScratch()
	defer PutScratch(scratch)
	it, err := BuildBatch(context.Background(), node, rt, Options{Parallelism: degree, BatchSize: batch, Scratch: scratch})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return CloneRows(nil, rows)
}

func TestGroupTableMatchesMapGrouping(t *testing.T) {
	col := func(i int) sqlparse.Expr { return &sqlparse.ColumnRef{Column: groupCols[i].Name} }
	specs := []plan.AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "COUNT", Arg: col(2)},
		{Func: "SUM", Arg: col(2)},
		{Func: "SUM", Arg: col(3)},
		{Func: "AVG", Arg: col(3)},
		{Func: "MIN", Arg: col(2)},
		{Func: "MAX", Arg: col(3)},
		{Func: "COUNT", Arg: col(2), Distinct: true},
		{Func: "SUM", Arg: col(2), Distinct: true},
	}
	argCol := []int{0, 2, 2, 3, 3, 2, 3, 2, 2}
	rng := rand.New(rand.NewSource(19))
	// Sizes on both sides of parallelMinRows, below which every degree
	// takes the sequential path, and around the partitioned path's window:
	// one short of it, exactly it, one past it and two windows and a bit.
	for _, n := range []int{0, 40, 3 * parallelMinRows, aggWindow - 1, aggWindow, aggWindow + 1, 2*aggWindow + 17} {
		rows := groupRows(rng, n)
		for nkeys := 0; nkeys <= 2; nkeys++ {
			var groupBy []sqlparse.Expr
			for k := 0; k < nkeys; k++ {
				groupBy = append(groupBy, col(k))
			}
			want := refGroupBy(rows, nkeys, specs, argCol)
			if nkeys == 0 && n == 0 {
				want = refGroupBy([]datum.Row{appendNulls(nil, 4)}, 0, specs, argCol)
				want[0][0] = datum.NewInt(0) // COUNT(*) of no rows
			}
			if nkeys == 2 && n > parallelMinRows && len(want) < 1000 {
				t.Fatalf("%d rows make %d groups: the table never grows", n, len(want))
			}
			// Over two windows, groups must also be first seen in a later
			// window, where a partition table already holds others.
			if nkeys > 0 && n > 2*aggWindow && len(refGroupBy(rows[:aggWindow], nkeys, nil, nil)) == len(want) {
				t.Fatalf("%d rows: every group of %d keys is first seen in the first window", n, nkeys)
			}
			cut := make([]datum.Row, n)
			for i, r := range rows {
				cut[i] = r[:nkeys]
			}
			wantDistinct := refGroupBy(cut, nkeys, nil, nil)
			for _, degree := range []int{1, 2, 8} {
				for bi, batch := range []int{1, 64, 1024} {
					agg := plan.NewAggregate(nil, groupScan(4), groupBy, specs)
					agg.Parallel = degree
					// No estimate, a gross underestimate (the table
					// doubles from one group), and the exact count.
					agg.Groups = []int{0, 1, len(want)}[bi]
					if got := runGrouping(t, agg, &flakyRuntime{rows: rows}, degree, batch); !sameRows(got, want) {
						t.Errorf("GROUP BY: rows=%d keys=%d degree=%d batch=%d: the %d groups, their order or their aggregates differ from the map grouping's %d",
							n, nkeys, degree, batch, len(got), len(want))
					}
					if nkeys == 0 {
						continue // no SELECT DISTINCT of no columns
					}
					dist := &plan.Distinct{Input: groupScan(nkeys)}
					if got := runGrouping(t, dist, &flakyRuntime{rows: cut}, degree, batch); !sameRows(got, wantDistinct) {
						t.Errorf("DISTINCT: rows=%d keys=%d degree=%d batch=%d: the %d rows or their order differ from the map's %d",
							n, nkeys, degree, batch, len(got), len(wantDistinct))
					}
				}
			}
		}
	}
}

// TestSumOverflowFallsBackToFloat: an INT sum that leaves int64 answers
// from the float image instead of wrapping around to a negative INT — also
// when the overflowing addends fall in different windows of the
// partitioned path.
func TestSumOverflowFallsBackToFloat(t *testing.T) {
	cols := []plan.ColMeta{{Name: "g", Kind: datum.KindInt}, {Name: "x", Kind: datum.KindInt}}
	aggs := []plan.AggSpec{{Func: "SUM", Arg: &sqlparse.ColumnRef{Column: "x"}}}
	// Every size is enough rows for the partitioned path.
	for _, n := range []int{2 * parallelMinRows, aggWindow - 1, aggWindow, aggWindow + 1, 2*aggWindow + 17} {
		rt := &flakyRuntime{}
		for i := 0; i < n; i++ {
			x := int64(0)
			if i < 2 || i >= n-2 {
				x = math.MaxInt64 // two rows per group when grouped, four when not
			}
			rt.rows = append(rt.rows, datum.Row{datum.NewInt(int64(i % 2)), datum.NewInt(x)})
		}
		for _, grouped := range []bool{false, true} {
			for _, degree := range []int{1, 2} {
				var groupBy []sqlparse.Expr
				want := []datum.Row{{datum.NewFloat(4 * float64(math.MaxInt64))}}
				if grouped {
					groupBy = []sqlparse.Expr{&sqlparse.ColumnRef{Column: "g"}}
					sum := datum.NewFloat(2 * float64(math.MaxInt64))
					want = []datum.Row{{datum.NewInt(0), sum}, {datum.NewInt(1), sum}}
				}
				scan := &plan.Remote{Source: "s", Child: &plan.Scan{Source: "s", Table: "t", Cols: cols}}
				agg := plan.NewAggregate(nil, scan, groupBy, aggs)
				agg.Parallel = degree
				if got := runGrouping(t, agg, rt, degree, 0); !sameRows(got, want) {
					t.Errorf("rows=%d grouped=%v parallelism=%d: got %s, want %s", n, grouped, degree, rowsToString(got), rowsToString(want))
				}
			}
		}
	}
}

// midWindowIter serves rows in batches of 64 and calls hit once the row at
// index at has been served: hit's error, if any, is the pull's error.
type midWindowIter struct {
	sliceBatchIter
	at  int
	hit func() error
}

func (m *midWindowIter) NextBatch() (Batch, error) {
	if m.pos > m.at && m.hit != nil {
		hit := m.hit
		m.hit = nil
		if err := hit(); err != nil {
			return nil, err
		}
	}
	return m.sliceBatchIter.NextBatch()
}

// TestWindowedAggregationStopsMidWindow stops the partitioned path in the
// middle of its second window three ways — the input fails with the fault
// flakyRuntime injects, the query is cancelled, a row cannot be folded —
// and checks each returns its error and leaves no goroutine behind.
func TestWindowedAggregationStopsMidWindow(t *testing.T) {
	const at = aggWindow + aggWindow/2
	cols := []plan.ColMeta{{Name: "g", Kind: datum.KindInt}, {Name: "x"}}
	rows := make([]datum.Row, 2*aggWindow)
	for i := range rows {
		x := datum.NewInt(int64(i))
		if i == at {
			x = datum.NewString("not a number")
		}
		rows[i] = datum.Row{datum.NewInt(int64(i % 50)), x}
	}
	g, err := Compile(nil, &sqlparse.ColumnRef{Column: "g"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Compile(nil, &sqlparse.ColumnRef{Column: "x"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	fault := &netsim.FaultError{Kind: netsim.FaultFlaky, Detail: "injected"}
	countStar, sumX := plan.AggSpec{Func: "COUNT", Star: true}, plan.AggSpec{Func: "SUM", Arg: &sqlparse.ColumnRef{Column: "x"}}
	for _, degree := range []int{2, 8} {
		for _, tc := range []struct {
			name string
			spec plan.AggSpec
			arg  Expr // a NULL literal for COUNT(*), which has no argument
			hit  func(cancel context.CancelFunc) error
			want error // nil: SUM's type error on the string at row at
		}{
			{"input fault", countStar, nullExpr, func(context.CancelFunc) error { return fault }, fault},
			{"cancel", countStar, nullExpr, func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled},
			{"fold error", sumX, *x, nil, nil},
		} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			src := &midWindowIter{sliceBatchIter: *newSliceBatchIter(nil, rows, 64), at: at}
			if tc.hit != nil {
				src.hit = func() error { return tc.hit(cancel) }
			}
			scratch := GetScratch()
			a := &aggregateBatchIter{
				in:       &guardBatchIter{in: src, ctx: ctx, done: ctx.Done()},
				groupFns: []Expr{*g},
				specs:    []plan.AggSpec{tc.spec},
				argFns:   []Expr{tc.arg},
				degree:   degree, size: 64, scratch: scratch,
			}
			_, err := a.NextBatch()
			a.Close()
			PutScratch(scratch)
			cancel()
			switch {
			case err == nil:
				t.Errorf("degree=%d %s: the aggregation finished", degree, tc.name)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("degree=%d %s: got %v, want %v", degree, tc.name, err, tc.want)
			case tc.want == nil && !strings.Contains(err.Error(), "requires numeric input"):
				t.Errorf("degree=%d %s: got %v, want the SUM type error", degree, tc.name, err)
			}
			waitGoroutines(t, base)
		}
	}
}

// --- (e) DISTINCT aggregates ---

// TestDistinctAggregateSurvivesHashCollision is the regression test for
// COUNT/SUM/AVG(DISTINCT x) de-duplicating by hash alone: 2^53 and 2^53+1
// are different INTs with one hash, and both must count. The third value,
// 0, is there because the colliding pair also shares its float64 image, so
// AVG over the pair alone reads 2^53 whether or not one of them is dropped.
func TestDistinctAggregateSurvivesHashCollision(t *testing.T) {
	cols := []plan.ColMeta{{Name: "g", Kind: datum.KindInt}, {Name: "x", Kind: datum.KindInt}}
	vals := []int64{twoTo53, twoTo53 + 1, 0}
	rt := &flakyRuntime{}
	for i := 0; i < 2*parallelMinRows; i++ { // enough rows for the partitioned path
		rt.rows = append(rt.rows, datum.Row{datum.NewInt(int64(i % 2)), datum.NewInt(vals[i%len(vals)])})
	}
	x := &sqlparse.ColumnRef{Column: "x"}
	aggs := []plan.AggSpec{
		{Func: "COUNT", Arg: x, Distinct: true},
		{Func: "SUM", Arg: x, Distinct: true},
		{Func: "AVG", Arg: x, Distinct: true},
	}
	// COUNT 3, SUM 2^54+1 exactly (the INT image), AVG from the float image.
	want := fmt.Sprintf("3,%d,%s", 2*twoTo53+1, datum.NewFloat(float64(2*twoTo53)/3).Display())

	for _, grouped := range []bool{false, true} {
		for _, degree := range []int{1, 2} {
			var groupBy []sqlparse.Expr
			wantRows := want
			if grouped {
				groupBy = []sqlparse.Expr{&sqlparse.ColumnRef{Column: "g"}}
				wantRows = "0," + want + "|1," + want
			}
			scan := &plan.Remote{Source: "s", Child: &plan.Scan{Source: "s", Table: "t", Cols: cols}}
			agg := plan.NewAggregate(nil, scan, groupBy, aggs)
			agg.Parallel = degree
			it, err := BuildBatch(context.Background(), agg, rt, Options{Parallelism: degree})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := DrainBatches(it)
			if err != nil {
				t.Fatal(err)
			}
			if got := rowsToString(rows); got != wantRows {
				t.Errorf("grouped=%v parallelism=%d: got %s, want %s", grouped, degree, got, wantRows)
			}
		}
	}
}

package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// bigFixture builds a single-source catalog with an orders table large
// enough to cross the parallel-execution thresholds (parallelMinRows) and
// a small custs dimension table. Roughly 1/17 of orders reference a
// customer id with no match, so LEFT joins exercise null padding.
func bigFixture(t testing.TB, n int) (*catalog.Global, *localRuntime) {
	g := catalog.NewGlobal()
	rt := &localRuntime{tables: map[string]*storage.Table{}}

	ordSchema := schema.MustTable("orders", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "cust", Kind: datum.KindInt},
		{Name: "region", Kind: datum.KindString, Nullable: true},
		{Name: "amount", Kind: datum.KindFloat},
	})
	custSchema := schema.MustTable("custs", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
	})
	src := catalog.NewSourceCatalog("s")
	src.AddTable(ordSchema, nil)
	src.AddTable(custSchema, nil)
	if err := g.AddSource(src); err != nil {
		t.Fatal(err)
	}

	ot := storage.NewTable(ordSchema)
	regions := []string{"north", "south", "east", "west", ""}
	for i := 0; i < n; i++ {
		reg := datum.Null
		if r := regions[i%len(regions)]; r != "" {
			reg = datum.NewString(r)
		}
		row := datum.Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(i % 103)), // ids 97..102 have no match in custs
			reg,
			datum.NewFloat(float64(i%1000) / 3),
		}
		if err := ot.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	ct := storage.NewTable(custSchema)
	for i := 0; i < 97; i++ {
		if err := ct.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewString(fmt.Sprintf("c%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	rt.tables["s.orders"] = ot
	rt.tables["s.custs"] = ct
	return g, rt
}

// forceParallel sets the executor worker hint on every operator that
// supports one, as the optimizer would for large estimated cardinalities.
func forceParallel(n plan.Node, deg int) {
	plan.Walk(n, func(x plan.Node) {
		switch v := x.(type) {
		case *plan.Filter:
			v.Parallel = deg
		case *plan.Project:
			v.Parallel = deg
		case *plan.Join:
			v.Parallel = deg
		case *plan.Aggregate:
			v.Parallel = deg
		}
	})
}

func buildPlan(t testing.TB, g *catalog.Global, sql string) plan.Node {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Build(g, sel)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

// e14Queries covers every batched operator: filter, project, hash join
// (inner and left, with parallel build when the right side is big),
// nested-loop join, grouped and grand aggregation (one key and two, one of
// them NULL for unmatched rows), sort, limit, distinct (one column and two),
// and a dynamic LIKE (the sync.Map regex cache) under a parallel filter.
var e14Queries = []string{
	"SELECT id, cust, amount FROM s.orders WHERE amount > 100 AND region = 'west'",
	"SELECT id FROM s.orders WHERE region LIKE ('%' || 'st')",
	"SELECT o.id, c.name, o.amount FROM s.orders o JOIN s.custs c ON o.cust = c.id WHERE o.amount > 50",
	"SELECT o.id, c.name FROM s.orders o LEFT JOIN s.custs c ON o.cust = c.id WHERE o.id < 5000",
	"SELECT a.id FROM s.orders a JOIN s.orders b ON a.id = b.id WHERE b.amount > 200",
	"SELECT o.id, c.id FROM s.orders o JOIN s.custs c ON o.cust < c.id WHERE o.id < 300 AND c.id > 90",
	"SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM s.orders GROUP BY region",
	"SELECT COUNT(*), SUM(amount), MIN(id), MAX(id) FROM s.orders",
	"SELECT c.name, SUM(o.amount) FROM s.orders o LEFT JOIN s.custs c ON o.cust = c.id GROUP BY c.name",
	"SELECT region, COUNT(DISTINCT cust) FROM s.orders GROUP BY region",
	"SELECT id, amount FROM s.orders WHERE amount > 150 ORDER BY amount DESC, id LIMIT 500",
	"SELECT DISTINCT region FROM s.orders",
	"SELECT DISTINCT region, cust FROM s.orders",
	"SELECT o.region, c.name, COUNT(*), SUM(o.amount) FROM s.orders o LEFT JOIN s.custs c ON o.cust = c.id GROUP BY o.region, c.name",
}

// TestE14ParallelMatchesSequential is the core E14 correctness claim:
// for every operator, every batch size, and every parallel degree, the
// result is row-for-row identical (order included) to sequential
// row-at-a-time execution.
func TestE14ParallelMatchesSequential(t *testing.T) {
	g, rt := bigFixture(t, 12000)
	for _, sql := range e14Queries {
		base := buildPlan(t, g, sql)
		it, err := BuildBatch(context.Background(), base, rt, Options{Parallelism: 1, BatchSize: 1})
		if err != nil {
			t.Fatalf("build baseline %q: %v", sql, err)
		}
		rows, err := DrainBatches(it)
		if err != nil {
			t.Fatalf("run baseline %q: %v", sql, err)
		}
		want := rowsToString(rows)

		for _, batch := range []int{1, 7, 64, 1024} {
			for _, par := range []int{1, 2, 8} {
				p := buildPlan(t, g, sql)
				forceParallel(p, par)
				stats := &ExecStats{}
				it, err := BuildBatch(context.Background(), p, rt, Options{Parallelism: par, BatchSize: batch, Stats: stats})
				if err != nil {
					t.Fatalf("build %q batch=%d par=%d: %v", sql, batch, par, err)
				}
				got, err := DrainBatches(it)
				if err != nil {
					t.Fatalf("run %q batch=%d par=%d: %v", sql, batch, par, err)
				}
				if g := rowsToString(got); g != want {
					t.Errorf("%q batch=%d par=%d: results diverge from sequential\n got %.200s\nwant %.200s",
						sql, batch, par, g, want)
				}
				if stats.Batches() == 0 && len(got) > 0 {
					t.Errorf("%q batch=%d par=%d: ExecStats recorded no batches", sql, batch, par)
				}
			}
		}
	}
}

// TestE14ParallelDegreeReported checks the stats watermark: a plan hinted
// and permitted to run at degree 8 must report parallel execution, and a
// sequential run must not.
func TestE14ParallelDegreeReported(t *testing.T) {
	g, rt := bigFixture(t, 12000)
	sql := "SELECT region, SUM(amount) FROM s.orders WHERE amount > 10 GROUP BY region"

	p := buildPlan(t, g, sql)
	forceParallel(p, 8)
	stats := &ExecStats{}
	it, err := BuildBatch(context.Background(), p, rt, Options{Parallelism: 8, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainBatches(it); err != nil {
		t.Fatal(err)
	}
	if got := stats.MaxParallelism(); got < 2 {
		t.Errorf("hinted degree-8 plan reported parallelism %d, want >= 2", got)
	}

	// Same hinted plan capped to sequential by Options.
	stats = &ExecStats{}
	it, err = BuildBatch(context.Background(), p, rt, Options{Parallelism: 1, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainBatches(it); err != nil {
		t.Fatal(err)
	}
	if got := stats.MaxParallelism(); got != 1 {
		t.Errorf("Parallelism=1 run reported parallelism %d, want 1", got)
	}
}

// TestE14ParallelScratchMatchesSequential runs the E14 queries the way the
// engine does, with one query scratch shared by every operator, exchange
// feeder and worker: batch copies, probe output containers, carved joined
// rows and aggregation windows all come from it concurrently, and the
// result must still equal the sequential heap-backed run's.
func TestE14ParallelScratchMatchesSequential(t *testing.T) {
	g, rt := bigFixture(t, 12000)
	for _, sql := range e14Queries {
		it, err := BuildBatch(context.Background(), buildPlan(t, g, sql), rt, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DrainBatches(it)
		if err != nil {
			t.Fatal(err)
		}
		want := rowsToString(rows)
		for _, batch := range []int{64, 1024} {
			for _, par := range []int{2, 8} {
				p := buildPlan(t, g, sql)
				forceParallel(p, par)
				scratch := GetScratch()
				it, err := BuildBatch(context.Background(), p, rt, Options{Parallelism: par, BatchSize: batch, Scratch: scratch})
				if err != nil {
					t.Fatal(err)
				}
				got, err := DrainBatches(it)
				if err != nil {
					t.Fatalf("%q batch=%d par=%d: %v", sql, batch, par, err)
				}
				if g := rowsToString(got); g != want {
					t.Errorf("%q batch=%d par=%d: results over the query scratch diverge from sequential\n got %.200s\nwant %.200s",
						sql, batch, par, g, want)
				}
				PutScratch(scratch)
			}
		}
	}
}

// TestExchangePreservesOrder drives the exchange with many small batches
// and an identity transform; the merged output must be the input order,
// for any worker count.
func TestExchangePreservesOrder(t *testing.T) {
	rows := make([]datum.Row, 10000)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i))}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		ex := newExchange(context.Background(), nil, newSliceBatchIter(nil, rows, 16), workers, func(w int, b Batch) (Batch, error) {
			out := make(Batch, 0, len(b))
			return append(out, b...), nil
		})
		got, err := DrainBatches(ex)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("workers=%d: got %d rows, want %d", workers, len(got), len(rows))
		}
		for i, r := range got {
			if v, _ := r[0].AsInt(); v != int64(i) {
				t.Fatalf("workers=%d: row %d carries %d — order not preserved", workers, i, v)
			}
		}
	}
}

// TestExchangeWorkerError checks a transform error surfaces to the
// caller and that Close after the error is safe.
func TestExchangeWorkerError(t *testing.T) {
	rows := make([]datum.Row, 4096)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i))}
	}
	ex := newExchange(context.Background(), nil, newSliceBatchIter(nil, rows, 32), 4, func(w int, b Batch) (Batch, error) {
		if v, _ := b[0][0].AsInt(); v >= 2048 {
			return nil, fmt.Errorf("injected failure at %d", v)
		}
		return append(Batch(nil), b...), nil
	})
	_, err := DrainBatches(ex)
	if err == nil {
		t.Fatal("worker error did not surface")
	}
	ex.Close() // double Close must be safe
}

// probeBatchMaxAllocs is the heap budget of probing one batch against a
// built join table with a warm query scratch: joined rows are carved from
// scratch blocks and the output container grows in the scratch, so nothing
// is allocated per probed, joined or NULL-padded row — or, once the scratch
// is warm, per batch.
const probeBatchMaxAllocs = 1

// probeAllocs probes batches of nProbe rows with keys 0, 1, 2, … (only
// keys below nBuild match) against a table over keys 0..nBuild-1, as one
// probe goroutine does across a query: key buffer, block pool and output
// container outlive the batch, and the scratch is reset between queries.
// It returns the heap allocations per batch.
func probeAllocs(t *testing.T, nBuild, nProbe int, leftJoin bool) float64 {
	t.Helper()
	keyFn, err := Compile(nil, &sqlparse.ColumnRef{Column: "k"}, []plan.ColMeta{{Table: "t", Name: "k", Kind: datum.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	buildRows := make([]datum.Row, nBuild)
	for i := range buildRows {
		buildRows[i] = datum.Row{datum.NewInt(int64(i))}
	}
	var tbl joinTable
	if err := buildJoinTable(&tbl, nil, buildRows, []Expr{*keyFn}, 1); err != nil {
		t.Fatal(err)
	}
	probe := make(Batch, nProbe)
	for i := range probe {
		probe[i] = datum.Row{datum.NewInt(int64(i))}
	}
	want := min(nBuild, nProbe)
	if leftJoin {
		want = nProbe
	}
	scratch, key := new(Scratch), make(datum.Row, 1)
	var block []datum.Datum
	var dst Batch
	return testing.AllocsPerRun(20, func() {
		scratch.Reset()
		block, dst = nil, nil
		for range 4 {
			var err error
			if dst, err = tbl.probeBatch(scratch, probe, []Expr{*keyFn}, nil, leftJoin, 1, key, &block, dst[:0]); err != nil {
				t.Fatal(err)
			}
			if len(dst) != want {
				t.Fatalf("probe emitted %d rows, want %d", len(dst), want)
			}
		}
	}) / 4
}

// TestE14HashJoinProbeAllocations guards the probe's allocation budget per
// batch: probing must neither copy hash buckets nor allocate a row per
// joined row.
func TestE14HashJoinProbeAllocations(t *testing.T) {
	for _, nProbe := range []int{512, 4096} {
		if perBatch := probeAllocs(t, 4096, nProbe, false); perBatch > probeBatchMaxAllocs {
			t.Errorf("probing a %d-row batch allocates %.2f objects, budget %d per batch", nProbe, perBatch, probeBatchMaxAllocs)
		}
	}
}

// TestLeftJoinPaddingAllocations: a LEFT JOIN probe NULL-pads its
// unmatched rows inside carved rows, so the heap cost per batch does not
// grow with them — a NULL row per unmatched row would cost thousands here.
func TestLeftJoinPaddingAllocations(t *testing.T) {
	for _, nProbe := range []int{512, 4096} {
		if perBatch := probeAllocs(t, 256, nProbe, true); perBatch > probeBatchMaxAllocs {
			t.Errorf("LEFT JOIN probe of %d rows, %d unmatched, allocates %.2f objects per batch, budget %d",
				nProbe, nProbe-256, perBatch, probeBatchMaxAllocs)
		}
	}
}

// nestedLoopAllocs joins 64 left rows, keys 0..63, against nRight right
// rows, keys 0..nRight-1, on l.k > r.k through a fresh nested-loop iterator
// over a warm query scratch, as one query does. With nRight >= 64 the join
// keeps the same 2016 rows (and NULL-pads left row 0 under LEFT JOIN)
// however many candidates it rejects. It returns the heap allocations per
// join.
func nestedLoopAllocs(t *testing.T, nRight int, leftJoin bool) float64 {
	t.Helper()
	cols := []plan.ColMeta{{Table: "l", Name: "k", Kind: datum.KindInt}, {Table: "r", Name: "k", Kind: datum.KindInt}}
	cond, err := sqlparse.ParseExpr("l.k > r.k")
	if err != nil {
		t.Fatal(err)
	}
	keys := func(n int) []datum.Row {
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = datum.Row{datum.NewInt(int64(i))}
		}
		return rows
	}
	leftRows, rightRows := keys(64), keys(nRight)
	want := 2016
	if leftJoin {
		want++
	}
	scratch := new(Scratch)
	join := func() {
		scratch.Reset()
		pred, err := Compile(scratch, cond, cols)
		if err != nil {
			t.Fatal(err)
		}
		it := New(scratch, nestedLoopBatchIter{
			left: newSliceBatchIter(scratch, leftRows, 16), right: newSliceBatchIter(scratch, rightRows, 256),
			cond: pred, leftJoin: leftJoin, rightArity: 1, size: DefaultBatchSize, scratch: scratch,
		})
		rows, err := DrainBatchesScratch(it, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want {
			t.Fatalf("the join kept %d rows, want %d", len(rows), want)
		}
	}
	join() // warm the scratch's blocks
	return testing.AllocsPerRun(20, join)
}

// TestNestedLoopJoinAllocations fences the nested-loop join: a rejected
// candidate pair is handed back to the row block, so a join's heap
// allocations do not grow when its right input, and with it the number of
// candidates it rejects, doubles (0 either way, measured). A heap row per
// candidate cost 65,547 allocations at 1,024 right rows and 131,083 at
// 2,048.
func TestNestedLoopJoinAllocations(t *testing.T) {
	for _, leftJoin := range []bool{false, true} {
		small, large := nestedLoopAllocs(t, 1024, leftJoin), nestedLoopAllocs(t, 2048, leftJoin)
		if large > small {
			t.Errorf("leftJoin=%v: the join allocates %.1f objects over 1024 right rows, %.1f over 2048; want no growth",
				leftJoin, small, large)
		}
	}
}

func BenchmarkHashJoinProbe(b *testing.B) {
	const nBuild, nProbe = 65536, 1024
	cols := []plan.ColMeta{{Table: "t", Name: "k", Kind: datum.KindInt}}
	keyFn, err := Compile(nil, &sqlparse.ColumnRef{Column: "k"}, cols)
	if err != nil {
		b.Fatal(err)
	}
	buildRows := make([]datum.Row, nBuild)
	for i := range buildRows {
		buildRows[i] = datum.Row{datum.NewInt(int64(i))}
	}
	var tbl joinTable
	if err := buildJoinTable(&tbl, nil, buildRows, []Expr{*keyFn}, 1); err != nil {
		b.Fatal(err)
	}
	probe := make(Batch, nProbe)
	for i := range probe {
		probe[i] = datum.Row{datum.NewInt(int64(i * 31 % nBuild))}
	}
	scratch, key := new(Scratch), make(datum.Row, 1)
	var block []datum.Datum
	dst := make(Batch, 0, nProbe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 { // a query's worth of batches
			scratch.Reset()
			block = nil
		}
		dst, err = tbl.probeBatch(scratch, probe, []Expr{*keyFn}, nil, false, 1, key, &block, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLikeCacheParallel hammers the dynamic LIKE regex cache from
// all cores. With the old mutex-guarded map this serializes; with
// sync.Map reads it scales.
func BenchmarkLikeCacheParallel(b *testing.B) {
	pats := make([]string, 64)
	for i := range pats {
		pats[i] = fmt.Sprintf("%%cust%02d%%", i)
		if _, err := likeCache(pats[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			likeCache(pats[i&63])
			i++
		}
	})
}

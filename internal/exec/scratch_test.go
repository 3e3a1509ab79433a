package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// reducibleJoin rewrites the two-table join in sql's plan the way the
// optimizer leaves a reducible one: each input behind a Remote of its
// source, the right one accepting a key filter, the join hinted to reduce
// it.
func reducibleJoin(tb testing.TB, g *catalog.Global, sql string) *plan.Join {
	var j *plan.Join
	plan.Walk(buildPlan(tb, g, sql), func(n plan.Node) {
		if x, ok := n.(*plan.Join); ok {
			j = x
		}
	})
	source := func(n plan.Node) (s string) {
		plan.Walk(n, func(x plan.Node) {
			if scan, ok := x.(*plan.Scan); ok {
				s = scan.Source
			}
		})
		return s
	}
	r := plan.NewJoin(nil, j.Type,
		&plan.Remote{Source: source(j.Left), Child: j.Left},
		&plan.Remote{Source: source(j.Right), Child: j.Right, AllowKeyFilter: true}, j.Cond)
	r.SemiJoin = plan.SemiJoinReduceRight
	return r
}

// fullFetchFixture is e18Fixture plus keys.keys, more distinct ids than any
// shipped key tier carries: a join probing with them falls back to a full
// fetch.
func fullFetchFixture(tb testing.TB) (*catalog.Global, *localRuntime) {
	g, rt := e18Fixture(tb, 500)
	keys := schema.MustTable("keys", []schema.Column{{Name: "id", Kind: datum.KindInt}})
	src := catalog.NewSourceCatalog("keys")
	src.AddTable(keys, nil)
	if err := g.AddSource(src); err != nil {
		tb.Fatal(err)
	}
	t := storage.NewTable(keys)
	for i := 1; i <= plan.DefaultBloomKeyCap+1000; i++ {
		if err := t.Insert(datum.Row{datum.NewInt(int64(i))}); err != nil {
			tb.Fatal(err)
		}
	}
	rt.tables["keys.keys"] = t
	return g, rt
}

// TestNilScratchMatchesPooled builds every operator kind twice, with a nil
// Scratch — what a source runs when no scratch rides its context — and
// with a pooled one that earlier cases have already filled and reset, and
// requires identical rows. Each case checks that its plan has the node it
// exists for, and the semi-join cases which tier the reduced side shipped.
func TestNilScratchMatchesPooled(t *testing.T) {
	big, bigRT := bigFixture(t, 6000)
	e18, e18RT := e18Fixture(t, 3000)
	full, fullRT := fullFetchFixture(t)
	sql := func(g *catalog.Global, q string) func() plan.Node {
		return func() plan.Node { return buildPlan(t, g, q) }
	}
	shipped := func(n plan.Node) string {
		f, ok := n.(*plan.Filter)
		if !ok {
			return "full fetch"
		}
		switch f.Cond.(type) {
		case *sqlparse.InExpr:
			return "IN-list"
		case *sqlparse.KeyFilterExpr:
			return "bloom"
		}
		return fmt.Sprintf("%T", f.Cond)
	}
	cases := []struct {
		name string
		rt   *localRuntime
		plan func() plan.Node
		want func(plan.Node) bool // the operator the case exists for
		tier string               // the semi-join tier the last fetch must ship
		par  int                  // the degree forced on every hinted operator
	}{
		{name: "filter", rt: bigRT, want: isNode[*plan.Filter],
			plan: sql(big, "SELECT id, cust, amount FROM s.orders WHERE amount > 100 AND region = 'west'")},
		{name: "project", rt: bigRT, want: isNode[*plan.Project],
			plan: sql(big, "SELECT id * 2, amount + 1, UPPER(region) FROM s.orders")},
		{name: "hash join", rt: bigRT, want: isNode[*plan.Join],
			plan: sql(big, "SELECT o.id, c.name FROM s.orders o LEFT JOIN s.custs c ON o.cust = c.id AND o.amount > c.id")},
		{name: "nested-loop join", rt: bigRT, want: isNode[*plan.Join],
			plan: sql(big, "SELECT o.id, c.id FROM s.orders o JOIN s.custs c ON o.cust < c.id WHERE o.id < 300 AND c.id > 90")},
		{name: "semi-join IN-list", rt: e18RT, want: isNode[*plan.Join], tier: "IN-list",
			plan: func() plan.Node { return e18Join(t, e18, "c.id <= 300") }},
		{name: "semi-join bloom", rt: e18RT, want: isNode[*plan.Join], tier: "bloom",
			plan: func() plan.Node { return e18Join(t, e18, "c.id <= 1000") }},
		{name: "semi-join full fetch", rt: fullRT, want: isNode[*plan.Join], tier: "full fetch",
			plan: func() plan.Node {
				return reducibleJoin(t, full, "SELECT k.id, i.amount FROM keys.keys k JOIN billing.invoices i ON k.id = i.cust_id")
			}},
		{name: "aggregate", rt: bigRT, want: isNode[*plan.Aggregate],
			plan: sql(big, "SELECT region, COUNT(*), SUM(amount), MIN(amount), COUNT(DISTINCT cust) FROM s.orders GROUP BY region")},
		{name: "sort", rt: bigRT, want: isNode[*plan.Sort],
			plan: sql(big, "SELECT id, amount FROM s.orders ORDER BY amount DESC, id")},
		{name: "limit/offset", rt: bigRT, want: isNode[*plan.Limit],
			plan: sql(big, "SELECT id FROM s.orders ORDER BY id DESC LIMIT 50 OFFSET 20")},
		{name: "distinct", rt: bigRT, want: isNode[*plan.Distinct],
			plan: sql(big, "SELECT DISTINCT region, cust FROM s.orders")},
		{name: "union", rt: bigRT, want: isNode[*plan.Union],
			plan: sql(big, "SELECT id FROM s.orders WHERE id < 100 UNION ALL SELECT id FROM s.custs UNION ALL SELECT cust FROM s.orders WHERE id > 5900")},
		{name: "exchange at degree 2", rt: bigRT, want: isNode[*plan.Filter], par: 2,
			plan: sql(big, "SELECT o.id, c.name, o.amount * 2 FROM s.orders o JOIN s.custs c ON o.cust = c.id WHERE o.amount > 50")},
	}
	scratch := GetScratch()
	defer PutScratch(scratch)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.plan()
			if tc.par > 1 {
				forceParallel(p, tc.par)
			}
			found := false
			plan.Walk(p, func(n plan.Node) { found = found || tc.want(n) })
			if !found {
				t.Fatalf("the plan has no node this case exists for:\n%s", plan.Explain(p))
			}
			run := func(s *Scratch) string {
				ctx, cancel := context.WithCancel(context.Background()) // every boundary gets a guard
				defer cancel()
				rt := &shippedRuntime{localRuntime: tc.rt}
				stats := &ExecStats{}
				it, err := BuildBatch(ctx, p, rt, Options{Scratch: s, Parallelism: max(tc.par, 1), Stats: stats, Cards: &CardLedger{}})
				if err != nil {
					t.Fatal(err)
				}
				rows, err := DrainBatchesScratch(it, s)
				if err != nil {
					t.Fatal(err)
				}
				if tc.tier != "" {
					if got := shipped(rt.shipped[len(rt.shipped)-1]); got != tc.tier {
						t.Fatalf("the reduced side shipped as %s, want %s", got, tc.tier)
					}
				}
				if tc.par > 1 && stats.MaxParallelism() != tc.par {
					t.Fatalf("ran at degree %d, want %d", stats.MaxParallelism(), tc.par)
				}
				return rowsToString(rows) // before the scratch recycles what the rows point into
			}
			want := run(nil)
			got := run(scratch)
			scratch.Reset()
			if want == "" {
				t.Fatal("the case returned no rows")
			}
			if got != want {
				t.Errorf("rows over a pooled scratch differ from the nil-scratch build\n got %.300s\nwant %.300s", got, want)
			}
		})
	}
	t.Run("expressions", func(t *testing.T) { checkExprCorpus(t, scratch) })
}

// exprCorpus is TestNilScratchMatchesPooled's expression corpus, over
// exprCols: three-valued logic with NULLs, IN and NOT IN on either side of
// inSetScanMax with and without a NULL item, LIKE, CASE, CAST, and
// arithmetic that overflows or fails.
var exprCorpus = []string{
	"b AND n > 0", "n > 0 AND b", "NOT b OR n = 1", "n = 1 OR NOT b", "NOT (n > 0)",
	"(i > 3) AND (n IS NULL)", "b AND (i = 1 OR n = 2)", "i AND b",
	"i IN (1)", "i IN (1, 6)", "i IN (1, 6, 7)", "i IN (2, 3, 4, 5)",
	"i NOT IN (1, NULL)", "i NOT IN (1, 2, NULL)", "i IN (NULL, 6, 7, 8)",
	"n IN (1, 2, 3)", "n NOT IN (1, 2)", "i IN (n, 6)", "i NOT IN (n, 2, 3)", "s IN ('x', 'y', 'z')",
	"s LIKE 'a%'", "s LIKE '_b%'", "s LIKE p", "i LIKE 'x'",
	"CASE WHEN i > 5 THEN 'big' WHEN n IS NULL THEN 'null' END",
	"CASE WHEN b THEN i * 2 ELSE i END",
	"CAST(i AS STRING)", "CAST(s AS INT)", "CAST(f AS INT)", "CAST(b AS FLOAT)",
	"i * 4611686018427387904", "i + 9223372036854775807", "-i - 9223372036854775807",
	"i / 0", "i % 0", "f % 2", "i / (n - n)", "i % 4 + f * 2",
	"i BETWEEN 1 AND 5", "i NOT BETWEEN n AND 10", "s BETWEEN 1 AND 2",
	"COALESCE(n, i, 0)", "SUBSTR(s, 2, 2)", "UPPER(s) || CONCAT(s, n, i)", "ABS(-i) + LENGTH(s)",
}

var exprCols = []plan.ColMeta{
	{Table: "t", Name: "i", Kind: datum.KindInt}, {Table: "t", Name: "f", Kind: datum.KindFloat},
	{Table: "t", Name: "s", Kind: datum.KindString}, {Table: "t", Name: "b", Kind: datum.KindBool},
	{Table: "t", Name: "n", Kind: datum.KindInt}, {Table: "t", Name: "p", Kind: datum.KindString},
}

func exprRows() []datum.Row {
	i, f, s, b := datum.NewInt, datum.NewFloat, datum.NewString, datum.NewBool
	null := datum.Null
	return []datum.Row{
		{i(6), f(2.5), s("abc"), b(true), null, s("a%")},
		{i(1), f(-1), s("xbz"), b(false), i(1), null},
		{i(-3), f(0), s("12"), null, i(2), s("_b_")},
		{null, null, null, null, null, null},
		{i(9223372036854775807), f(1e300), s(""), b(true), i(0), s("%")},
	}
}

// checkExprCorpus compiles every corpus expression with a nil scratch and
// with s, which earlier compiles have dirtied and reset, and requires the
// same value or the same error text on every row.
func checkExprCorpus(t *testing.T, s *Scratch) {
	eval := func(f *Expr, r datum.Row) string {
		v, err := f.Eval(r)
		if err != nil {
			return "error: " + err.Error()
		}
		return v.Kind().String() + " " + v.String()
	}
	errors := 0
	for round := 0; round < 2; round++ {
		for _, src := range exprCorpus {
			e, err := sqlparse.ParseExpr(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			heap, err := Compile(nil, e, exprCols)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			pooled, err := Compile(s, e, exprCols)
			if err != nil {
				t.Fatalf("compile %q into a scratch: %v", src, err)
			}
			for _, r := range exprRows() {
				want, got := eval(heap, r), eval(pooled, r)
				if got != want {
					t.Errorf("%s over %v: scratch-compiled %q, nil-scratch %q", src, r, got, want)
				}
				if strings.HasPrefix(want, "error: ") {
					errors++
				}
			}
		}
		s.Reset()
	}
	if errors == 0 {
		t.Error("no corpus expression failed on any row: the error paths went unchecked")
	}
}

func isNode[T plan.Node](n plan.Node) bool {
	_, ok := n.(T)
	return ok
}

// slot stands for one of the element types a query draws from its
// scratch: each K makes a distinct type, so a slot[K] has a slab of its
// own.
type slot[K any] struct {
	k K
	v int64
}

// BenchmarkScratchNew draws round-robin over 18 element types, about the
// number a warm point query draws from its scratch, and resets the
// scratch every 72 draws, about as often as such a query recycles it. One
// op is 18 draws: it prices finding a type's slab, which every New and
// Make pays, and the lock around it.
func BenchmarkScratchNew(b *testing.B) {
	s := GetScratch()
	defer PutScratch(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(s, slot[[1]byte]{})
		New(s, slot[[2]byte]{})
		New(s, slot[[3]byte]{})
		New(s, slot[[4]byte]{})
		New(s, slot[[5]byte]{})
		New(s, slot[[6]byte]{})
		New(s, slot[[7]byte]{})
		New(s, slot[[8]byte]{})
		New(s, slot[[9]byte]{})
		New(s, slot[[10]byte]{})
		New(s, slot[[11]byte]{})
		New(s, slot[[12]byte]{})
		New(s, slot[[13]byte]{})
		New(s, slot[[14]byte]{})
		New(s, slot[[15]byte]{})
		New(s, slot[[16]byte]{})
		New(s, slot[[17]byte]{})
		New(s, slot[[18]byte]{})
		if i%4 == 3 {
			s.Reset()
		}
	}
}

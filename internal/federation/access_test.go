package federation

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// The access-path tests are differential: the same data sits in two sources
// named "s", one whose table t declares a primary key on id and indexes on k
// and s, one whose table declares nothing, and every fragment must come back
// from both with the same rows in the same order (or the same error).

const big53 = int64(1) << 53

var diffCols = []schema.Column{
	{Name: "id", Kind: datum.KindInt},
	{Name: "k", Kind: datum.KindInt, Nullable: true},
	{Name: "f", Kind: datum.KindFloat, Nullable: true},
	{Name: "s", Kind: datum.KindString},
}

type diffPair struct {
	indexed, plain *RelationalSource
	it, pt         *storage.Table
	rng            *rand.Rand
	nextID         int64
}

func newDiffPair(t testing.TB, seed int64, rows int) *diffPair {
	t.Helper()
	p := &diffPair{rng: rand.New(rand.NewSource(seed)), nextID: 1}
	var err error
	p.indexed = NewRelationalSource("s", FullSQL(), nil)
	if p.it, err = p.indexed.CreateTable(schema.MustTable("t", diffCols, 0)); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"k", "s"} {
		if err := p.it.CreateIndex("by_"+col, []string{col}, false); err != nil {
			t.Fatal(err)
		}
	}
	p.plain = NewRelationalSource("s", FullSQL(), nil)
	if p.pt, err = p.plain.CreateTable(schema.MustTable("t", diffCols)); err != nil {
		t.Fatal(err)
	}
	p.insert(t, datum.NewInt(big53), datum.NewInt(big53), datum.NewFloat(1), datum.NewString("big"))
	p.insert(t, datum.NewInt(big53+1), datum.NewInt(big53+1), datum.NewFloat(2), datum.NewString("big"))
	for i := 0; i < rows; i++ {
		p.insertRandom(t)
	}
	return p
}

func (p *diffPair) insert(t testing.TB, row ...datum.Datum) {
	t.Helper()
	if err := p.it.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := p.pt.Insert(row); err != nil {
		t.Fatal(err)
	}
}

// insertRandom adds one row under the next id: k from a domain of 24 with
// NULLs, f a multiple of a half in [0, 100) with NULLs, s one of six tags.
func (p *diffPair) insertRandom(t testing.TB) {
	k, f := datum.NewInt(p.rng.Int63n(24)), datum.NewFloat(float64(p.rng.Intn(200))/2)
	if p.rng.Intn(10) == 0 {
		k = datum.Null
	}
	if p.rng.Intn(10) == 0 {
		f = datum.Null
	}
	p.insert(t, datum.NewInt(p.nextID), k, f, datum.NewString(fmt.Sprintf("tag%d", p.rng.Intn(6))))
	p.nextID++
}

func scanT(alias string) *plan.Scan {
	cols := make([]plan.ColMeta, len(diffCols))
	for i, c := range diffCols {
		cols[i] = plan.ColMeta{Table: alias, Name: c.Name, Kind: c.Kind}
	}
	return scanNode("s", "t", alias, cols)
}

func mustExpr(t testing.TB, text string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return e
}

func filter(t testing.TB, in plan.Node, cond string) *plan.Filter {
	return &plan.Filter{Input: in, Cond: mustExpr(t, cond)}
}

// project builds a Project from "expr AS name" items under one qualifier.
func project(t testing.TB, in plan.Node, qualifier string, items ...string) *plan.Project {
	p := &plan.Project{Input: in}
	for _, item := range items {
		text, name, _ := strings.Cut(item, " AS ")
		p.Exprs = append(p.Exprs, mustExpr(t, text))
		p.Cols = append(p.Cols, plan.ColMeta{Table: qualifier, Name: name})
	}
	return p
}

func inList(col string, not bool, items ...sqlparse.Expr) *sqlparse.InExpr {
	return &sqlparse.InExpr{Child: &sqlparse.ColumnRef{Column: col}, List: items, Not: not}
}

func lit(d datum.Datum) sqlparse.Expr { return &sqlparse.Literal{Value: d} }

func render(rows []datum.Row, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, r := range rows {
		for _, d := range r {
			fmt.Fprintf(&b, "%s:%s|", d.Kind(), d.Display())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// same runs frag at both sources, without and with a query scratch on the
// context, and returns the indexed source's rendering.
func (p *diffPair) same(t testing.TB, name string, frag plan.Node) string {
	t.Helper()
	want := render(p.plain.ExecuteCtx(context.Background(), frag))
	if got := render(p.indexed.ExecuteCtx(context.Background(), frag)); got != want {
		t.Fatalf("%s: indexed source differs\n got:\n%s\nwant:\n%s", name, got, want)
	}
	scratch := exec.GetScratch()
	defer exec.PutScratch(scratch)
	ctx := exec.WithScratch(context.Background(), scratch)
	if got := render(p.indexed.ExecuteCtx(ctx, frag)); got != want {
		t.Fatalf("%s: indexed source with a scratch differs\n got:\n%s\nwant:\n%s", name, got, want)
	}
	return want
}

// fed reports how many rows the indexed source feeds scan when it runs
// frag: the table's length unless an index probe narrowed it.
func (p *diffPair) fed(t testing.TB, frag plan.Node, scan *plan.Scan) int {
	t.Helper()
	rt := &fragmentRuntime{src: &p.indexed.tableBacked, root: frag}
	rows, err := rt.ScanTable(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

// templateOf turns frag into a fragment template: every literal of its
// expressions becomes a parameter, numbered in the order plan.Map meets
// them, whose value vals holds. Scans are kept.
func templateOf(frag plan.Node) (tmpl plan.Node, vals []datum.Datum) {
	expr := func(e sqlparse.Expr) sqlparse.Expr {
		out, _ := sqlparse.RewriteIn(nil, e, func(x sqlparse.Expr) (sqlparse.Expr, error) {
			if lit, ok := x.(*sqlparse.Literal); ok {
				vals = append(vals, lit.Value)
				return &sqlparse.Param{Index: len(vals)}, nil
			}
			return x, nil
		})
		return out
	}
	var node func(plan.Node) plan.Node
	node = func(n plan.Node) plan.Node { return plan.Map(nil, n, node, expr) }
	return node(frag), vals
}

// sameTemplate runs tmpl with vals at both sources as a cached plan's
// fragment, twice — the first fetch prepares it, the second reuses what
// was prepared — and requires want, the literal fragment's rendering.
func (p *diffPair) sameTemplate(t testing.TB, name string, tmpl plan.Node, vals []datum.Datum, want string) {
	t.Helper()
	for _, src := range []*RelationalSource{p.indexed, p.plain} {
		frags := exec.NewFragments(&plan.Remote{Source: "s", Child: tmpl})
		for run := 1; run <= 2; run++ {
			scratch := exec.GetScratch()
			scratch.SetTemplate(vals, frags)
			got := render(src.ExecuteCtx(exec.WithScratch(context.Background(), scratch), tmpl))
			exec.PutScratch(scratch)
			if got != want {
				t.Fatalf("%s: run %d at the %s source differs\n got:\n%s\nwant:\n%s", name, run, map[bool]string{true: "indexed", false: "plain"}[src == p.indexed], got, want)
			}
		}
	}
}

// fedPrepared is fed for the fragment template tmpl prepared by the
// indexed source and run with vals.
func (p *diffPair) fedPrepared(t testing.TB, tmpl plan.Node, vals []datum.Datum, scan *plan.Scan) int {
	t.Helper()
	f, err := p.indexed.prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	rt := &fragmentRuntime{src: &p.indexed.tableBacked, root: tmpl, params: vals, scans: f.scans}
	rows, err := rt.ScanTable(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

func TestAccessPathsMatchFullScan(t *testing.T) {
	p := newDiffPair(t, 1, 400)
	type fragment struct {
		name  string
		build func(scan *plan.Scan) plan.Node
		probe bool // the scan must be fed fewer rows than the table holds
	}
	cases := []fragment{
		{"pk = INT", func(s *plan.Scan) plan.Node { return filter(t, s, "id = 17") }, true},
		{"pk = FLOAT", func(s *plan.Scan) plan.Node { return filter(t, s, "id = 17.0") }, true},
		{"literal = pk", func(s *plan.Scan) plan.Node { return filter(t, s, "17 = t.id") }, true},
		{"pk = fractional FLOAT", func(s *plan.Scan) plan.Node { return filter(t, s, "id = 17.5") }, true},
		{"pk = NULL", func(s *plan.Scan) plan.Node { return filter(t, s, "id = NULL") }, true},
		{"pk = absent", func(s *plan.Scan) plan.Node { return filter(t, s, "id = 100000") }, true},
		{"pk = STRING raises in the filter", func(s *plan.Scan) plan.Node { return filter(t, s, "id = 'x'") }, false},
		{"2^53", func(s *plan.Scan) plan.Node {
			return &plan.Filter{Input: s, Cond: inList("id", false, lit(datum.NewInt(big53)))}
		}, true},
		{"2^53+1", func(s *plan.Scan) plan.Node {
			return &plan.Filter{Input: s, Cond: inList("k", false, lit(datum.NewInt(big53+1)))}
		}, true},
		{"2^53 as FLOAT meets both", func(s *plan.Scan) plan.Node {
			return &plan.Filter{Input: s, Cond: &sqlparse.BinaryExpr{Op: sqlparse.OpEq,
				Left: &sqlparse.ColumnRef{Column: "id"}, Right: lit(datum.NewFloat(float64(big53)))}}
		}, true},
		{"IN with NULL, duplicate, absent, FLOAT keys", func(s *plan.Scan) plan.Node {
			return filter(t, s, "k IN (3, NULL, 3, 99, 5.0, 7)")
		}, true},
		{"IN over STRING kind on INT column", func(s *plan.Scan) plan.Node { return filter(t, s, "k IN ('3', 4)") }, true},
		{"IN on STRING index", func(s *plan.Scan) plan.Node { return filter(t, s, "s IN ('tag1', 'big')") }, true},
		{"NOT IN", func(s *plan.Scan) plan.Node { return filter(t, s, "k NOT IN (3, 4)") }, false},
		{"OR", func(s *plan.Scan) plan.Node { return filter(t, s, "k = 3 OR k = 4") }, false},
		{"NOT", func(s *plan.Scan) plan.Node { return filter(t, s, "NOT (k = 3)") }, false},
		{"col = col", func(s *plan.Scan) plan.Node { return filter(t, s, "k = id") }, false},
		{"non-literal list item", func(s *plan.Scan) plan.Node { return filter(t, s, "k IN (3, id)") }, false},
		{"expression = literal", func(s *plan.Scan) plan.Node { return filter(t, s, "k + 1 = 4") }, false},
		{"unindexed column", func(s *plan.Scan) plan.Node { return filter(t, s, "f = 10.5") }, false},
		{"range", func(s *plan.Scan) plan.Node { return filter(t, s, "id < 17") }, false},
		{"too many keys for the table", func(s *plan.Scan) plan.Node {
			in := inList("id", false)
			for i := 0; i < 200; i++ {
				in.List = append(in.List, lit(datum.NewInt(int64(2*i))))
			}
			return &plan.Filter{Input: s, Cond: in}
		}, false},
		{"conjunct in the middle", func(s *plan.Scan) plan.Node {
			return filter(t, s, "f > 10 AND k IN (3, 4) AND s <> 'tag0'")
		}, true},
		{"first indexed conjunct of several", func(s *plan.Scan) plan.Node {
			return filter(t, s, "f = 10 AND s = 'tag1' AND k = 3")
		}, true},
		{"stacked filters over a renaming project", func(s *plan.Scan) plan.Node {
			pr := project(t, s, "v", "t.f AS amount", "t.k AS cust", "t.id AS id")
			return &plan.Filter{Input: filter(t, pr, "v.amount > 20"), Cond: mustExpr(t, "v.cust IN (3, 4, 5)")}
		}, true},
		{"lower filter of a stack", func(s *plan.Scan) plan.Node {
			return filter(t, filter(t, s, "k IN (3, 4)"), "f > 20")
		}, true},
		{"two renaming projects", func(s *plan.Scan) plan.Node {
			inner := project(t, s, "a", "t.id AS x", "t.k AS y")
			outer := project(t, inner, "b", "a.y AS z", "a.x AS w")
			return filter(t, outer, "b.z = 3 AND w > 5")
		}, true},
		{"expression project hides the column", func(s *plan.Scan) plan.Node {
			return filter(t, project(t, s, "v", "t.k + 1 AS k", "t.id AS id"), "k = 4")
		}, false},
		{"plain column beside an expression", func(s *plan.Scan) plan.Node {
			return filter(t, project(t, s, "v", "t.k + 1 AS k1", "t.id AS id"), "id = 17 AND k1 > 0")
		}, true},
		{"swapped names", func(s *plan.Scan) plan.Node {
			return filter(t, project(t, s, "v", "t.id AS k", "t.k AS id"), "v.id = 3")
		}, true},
		{"filter above a limit", func(s *plan.Scan) plan.Node {
			return filter(t, &plan.Limit{Input: s, Count: 50}, "k = 3")
		}, false},
		{"limit above a filter", func(s *plan.Scan) plan.Node {
			return &plan.Limit{Input: filter(t, s, "k = 3"), Count: 5, Offset: 2}
		}, true},
		{"aggregate", func(s *plan.Scan) plan.Node {
			return plan.NewAggregate(nil, filter(t, s, "k IN (1, 2, 3)"),
				[]sqlparse.Expr{mustExpr(t, "s")},
				[]plan.AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: mustExpr(t, "f")}})
		}, true},
		{"sort and distinct", func(s *plan.Scan) plan.Node {
			pr := project(t, filter(t, s, "k IN (1, 2)"), "v", "t.s AS s")
			return &plan.Sort{Input: &plan.Distinct{Input: pr}, Keys: []plan.SortKey{{Expr: mustExpr(t, "s"), Desc: true}}}
		}, true},
		{"unbound parameter", func(s *plan.Scan) plan.Node { return filter(t, s, "k = ?") }, false},
		{"bound parameters", func(s *plan.Scan) plan.Node {
			bound, err := plan.BindParams(filter(t, s, "k IN (?, ?) AND f > ?"),
				[]datum.Datum{datum.NewInt(3), datum.NewFloat(4), datum.NewInt(10)})
			if err != nil {
				t.Fatal(err)
			}
			return bound
		}, true},
	}
	check := func(stage string) {
		t.Helper()
		for _, c := range cases {
			scan := scanT("t")
			frag := c.build(scan)
			// BindParams rebuilds the nodes above the scan but may also
			// copy the scan; find the one the fragment really holds.
			plan.Walk(frag, func(n plan.Node) {
				if s, ok := n.(*plan.Scan); ok {
					scan = s
				}
			})
			want := p.same(t, stage+"/"+c.name, frag)
			if fed, all := p.fed(t, frag, scan), p.it.Len(); (fed < all) != c.probe {
				t.Errorf("%s/%s: scan fed %d of %d rows, probe expected: %v", stage, c.name, fed, all, c.probe)
			}
			if c.name == "unbound parameter" {
				continue
			}
			// The same fragment as a template, its literals parameters:
			// prepared, it answers alike and probes alike.
			tmpl, vals := templateOf(frag)
			p.sameTemplate(t, stage+"/"+c.name+" as a template", tmpl, vals, want)
			if fed, all := p.fedPrepared(t, tmpl, vals, scan), p.it.Len(); (fed < all) != c.probe {
				t.Errorf("%s/%s as a template: scan fed %d of %d rows, probe expected: %v", stage, c.name, fed, all, c.probe)
			}
		}
	}
	check("loaded")

	for i := 0; i < 300; i++ {
		p.insertRandom(t)
	}
	check("after insert")

	bump := func(r datum.Row) datum.Row {
		if !r[1].IsNull() {
			r[1] = datum.NewInt((r[1].Int() + 1) % 24)
		}
		return r
	}
	third := func(r datum.Row) bool { return r[0].Int()%3 == 0 }
	for _, tab := range []*storage.Table{p.it, p.pt} {
		if _, err := tab.Update(third, bump); err != nil {
			t.Fatal(err)
		}
	}
	check("after update")

	for _, tab := range []*storage.Table{p.it, p.pt} {
		tab.Delete(func(r datum.Row) bool { return r[0].Int()%5 == 1 })
	}
	check("after delete")

	p.it.Truncate()
	p.pt.Truncate()
	p.same(t, "truncated", filter(t, scanT("t"), "k = 3"))
	for i := 0; i < 200; i++ {
		p.insertRandom(t)
	}
	p.insert(t, datum.NewInt(17), datum.NewInt(3), datum.NewFloat(50), datum.NewString("tag1"))
	p.insert(t, datum.NewInt(big53), datum.NewInt(big53), datum.Null, datum.NewString("big"))
	p.insert(t, datum.NewInt(big53+1), datum.NewInt(big53+1), datum.Null, datum.NewString("big"))
	check("after truncate and reload")
}

// A pushed-down self-join holds two scans of one table under different
// filters; each must be fed from its own filter's probe.
func TestAccessPathBoundToItsScan(t *testing.T) {
	p := newDiffPair(t, 2, 400)
	a, b := scanT("a"), scanT("b")
	join := plan.NewJoin(nil, sqlparse.JoinInner,
		filter(t, a, "a.id IN (17, 18, 19)"),
		filter(t, b, "b.k IN (3, 4)"),
		mustExpr(t, "a.k = b.k"))
	if out := p.same(t, "self-join", join); out == "" {
		t.Log("self-join matched no rows on this seed")
	}
	if fed := p.fed(t, join, a); fed != 3 {
		t.Errorf("scan a fed %d rows, want the 3 its own IN-list names", fed)
	}
	want := 0
	p.it.Scan(func(r datum.Row) bool {
		if !r[1].IsNull() && (r[1].Int() == 3 || r[1].Int() == 4) {
			want++
		}
		return true
	})
	if fed := p.fed(t, join, b); fed != want {
		t.Errorf("scan b fed %d rows, want the %d with k in (3, 4)", fed, want)
	}

	// One scan node in two places has no single filter chain: no probe.
	shared := scanT("t")
	union := &plan.Union{Inputs: []plan.Node{filter(t, shared, "id = 17"), filter(t, shared, "id = 18")}}
	p.same(t, "shared scan node", union)
	if fed, all := p.fed(t, union, shared), p.it.Len(); fed != all {
		t.Errorf("shared scan node fed %d of %d rows, want the full heap", fed, all)
	}
}

// randomFragment stacks one to three filters, each a random AND/OR tree of
// predicates over random literals, on a scan, sometimes with a renaming
// project in between.
func randomFragment(t testing.TB, rng *rand.Rand) plan.Node {
	cols := []string{"id", "k", "f", "s"}
	var node plan.Node = scanT("t")
	literal := func(col string) string {
		switch col {
		case "id":
			return []string{fmt.Sprint(rng.Intn(450)), fmt.Sprintf("%d.0", rng.Intn(450)), fmt.Sprint(big53 + int64(rng.Intn(2)))}[rng.Intn(3)]
		case "k":
			return []string{fmt.Sprint(rng.Intn(26)), fmt.Sprintf("%d.0", rng.Intn(26)), "NULL"}[rng.Intn(3)]
		case "f":
			return fmt.Sprintf("%d.5", rng.Intn(100))
		default:
			return fmt.Sprintf("'tag%d'", rng.Intn(7))
		}
	}
	atom := func() string {
		col := cols[rng.Intn(len(cols))]
		name := col
		if rng.Intn(2) == 0 {
			name = "t." + col
		}
		switch rng.Intn(6) {
		case 0, 1:
			return name + " = " + literal(col)
		case 2, 3:
			items := make([]string, 1+rng.Intn(6))
			for i := range items {
				items[i] = literal(col)
			}
			not := ""
			if rng.Intn(4) == 0 {
				not = "NOT "
			}
			return name + " " + not + "IN (" + strings.Join(items, ", ") + ")"
		case 4:
			return name + " > " + literal(col)
		default:
			return literal(col) + " = " + name
		}
	}
	var tree func(depth int) string
	tree = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return atom()
		}
		op := " AND "
		if rng.Intn(4) == 0 {
			op = " OR "
		}
		return "(" + tree(depth-1) + op + tree(depth-1) + ")"
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		node = filter(t, node, tree(2))
		if rng.Intn(4) == 0 {
			// Rename every column to itself under the same qualifier, in a
			// new order, so the filters above still resolve.
			perm := rng.Perm(len(cols))
			items := make([]string, len(cols))
			for i, j := range perm {
				items[i] = "t." + cols[j] + " AS " + cols[j]
			}
			node = project(t, node, "t", items...)
		}
	}
	return node
}

func TestAccessPathsRandomFragments(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := newDiffPair(t, seed, 100+int(seed)*50)
		rng := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 150; i++ {
			frag := randomFragment(t, rng)
			p.same(t, fmt.Sprintf("seed %d fragment %d: %s", seed, i, plan.Explain(frag)), frag)
			if i%50 == 49 {
				p.it.Delete(func(r datum.Row) bool { return r[0].Int()%7 == int64(i%7) })
				p.pt.Delete(func(r datum.Row) bool { return r[0].Int()%7 == int64(i%7) })
				for j := 0; j < 40; j++ {
					p.insertRandom(t)
				}
			}
		}
	}
}

// A writer inserts, updates and deletes rows above id 1000 while fetches
// probe and scan: the rows at or below it never change, so every fetch
// restricted to them must see exactly what it saw before the writer
// started. Run under -race this covers the index arrays being grown and
// rebuilt beside their readers, and full scans reading the heap's shared
// header slice while Insert appends past it and Update and Delete replace
// it.
func TestAccessPathsUnderConcurrentWrites(t *testing.T) {
	p := newDiffPair(t, 3, 600)
	frags := []plan.Node{
		filter(t, scanT("t"), "id = 17"),
		filter(t, scanT("t"), "k IN (3, 4, 5) AND id <= 1000"),
		filter(t, filter(t, scanT("t"), "id <= 1000"), "s = 'tag2'"),
		filter(t, scanT("t"), "f > 20 AND id <= 1000"),
	}
	if n := p.fed(t, frags[3], frags[3].(*plan.Filter).Input.(*plan.Scan)); n != p.it.Len() {
		t.Fatalf("the full-scan fragment is fed %d of %d rows: it must not probe", n, p.it.Len())
	}
	var want []string
	for _, f := range frags {
		want = append(want, p.same(t, "before writes", f))
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(4))
		for id := int64(1001); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			row := datum.Row{datum.NewInt(id), datum.NewInt(rng.Int63n(8)), datum.NewFloat(1), datum.NewString("tag2")}
			if err := p.it.Insert(row); err != nil {
				t.Error(err)
				return
			}
			if id%16 == 0 {
				p.it.Delete(func(r datum.Row) bool { return r[0].Int() > 1000 && r[0].Int()%2 == 0 })
			}
			if id%16 == 8 {
				if _, err := p.it.Update(func(r datum.Row) bool { return r[0].Int() > 1000 }, func(r datum.Row) datum.Row {
					r[2] = datum.NewFloat(float64(rng.Intn(200)) / 2)
					return r
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				for j, f := range frags {
					if got := render(p.indexed.ExecuteCtx(context.Background(), f)); got != want[j] {
						t.Errorf("fragment %d changed under writes:\n got:\n%s\nwant:\n%s", j, got, want[j])
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

package federation

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

func relFixture(t *testing.T) *RelationalSource {
	t.Helper()
	src := NewRelationalSource("crm", FullSQL(), netsim.NewLink(time.Millisecond, 1e6, 1))
	tab, err := src.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString},
	}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []struct {
		name, region string
	}{{"Ann", "west"}, {"Bob", "east"}, {"Cal", "east"}} {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i + 1)), datum.NewString(r.name), datum.NewString(r.region)}); err != nil {
			t.Fatal(err)
		}
	}
	src.RefreshStats()
	return src
}

func scanNode(src, table, alias string, cols []plan.ColMeta) *plan.Scan {
	return &plan.Scan{Source: src, Table: table, Alias: alias, Cols: cols}
}

func custCols() []plan.ColMeta {
	return []plan.ColMeta{
		{Table: "customers", Name: "id", Kind: datum.KindInt},
		{Table: "customers", Name: "name", Kind: datum.KindString},
		{Table: "customers", Name: "region", Kind: datum.KindString},
	}
}

func TestRelationalExecuteScan(t *testing.T) {
	src := relFixture(t)
	rows, err := src.ExecuteCtx(context.Background(), scanNode("crm", "customers", "customers", custCols()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	m := src.Link().Metrics()
	if m.RoundTrips != 1 || m.BytesShipped <= 0 {
		t.Errorf("link metrics = %+v", m)
	}
}

func TestRelationalExecuteFilterPushdown(t *testing.T) {
	src := relFixture(t)
	cond, _ := sqlparse.ParseExpr("region = 'east'")
	subtree := &plan.Filter{Input: scanNode("crm", "customers", "customers", custCols()), Cond: cond}
	rows, err := src.ExecuteCtx(context.Background(), subtree)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("filtered rows = %d", len(rows))
	}
	// Pushing the filter must ship less than a full scan.
	filtered := src.Link().Metrics().BytesShipped
	src.Link().Reset()
	if _, err := src.ExecuteCtx(context.Background(), scanNode("crm", "customers", "customers", custCols())); err != nil {
		t.Fatal(err)
	}
	full := src.Link().Metrics().BytesShipped
	if filtered >= full {
		t.Errorf("filter pushdown shipped %d, full scan %d", filtered, full)
	}
}

func TestRelationalRejectsForeignScan(t *testing.T) {
	src := relFixture(t)
	if _, err := src.ExecuteCtx(context.Background(), scanNode("other", "customers", "c", custCols())); err == nil {
		t.Error("foreign scan must be rejected")
	}
}

func TestCapsClampExecution(t *testing.T) {
	ctx := context.Background()
	cols := []plan.ColMeta{{Table: "t", Name: "a", Kind: datum.KindInt}}
	cond, _ := sqlparse.ParseExpr("a = 1")
	for _, tc := range []struct {
		name     string
		caps     Caps
		rejected plan.Node
	}{
		// A filter-only source must reject an aggregate subtree.
		{"filter-only", FilterOnly(), plan.NewAggregate(nil, scanNode("src", "t", "t", cols),
			nil, []plan.AggSpec{{Func: "COUNT", Star: true}})},
		// A scan-only source (the key-value tier) ships whole tables and
		// rejects even a filter.
		{"scan-only", ScanOnly(), &plan.Filter{Input: scanNode("src", "t", "t", cols), Cond: cond}},
	} {
		src := NewRelationalSource("src", tc.caps, nil)
		tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}}))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int64{1, 2} {
			if err := tab.Insert(datum.Row{datum.NewInt(v)}); err != nil {
				t.Fatal(err)
			}
		}
		if rows, err := src.ExecuteCtx(ctx, scanNode("src", "t", "t", cols)); err != nil || len(rows) != 2 {
			t.Errorf("%s: bare scan: rows=%d err=%v", tc.name, len(rows), err)
		}
		if _, err := src.ExecuteCtx(ctx, tc.rejected); err == nil || !strings.Contains(err.Error(), "cannot execute") {
			t.Errorf("%s: capability violation must error, got %v", tc.name, err)
		}
	}
}

func TestCapsAllowsMatrix(t *testing.T) {
	full := FullSQL()
	scan := scanNode("s", "t", "t", nil)
	nodes := []plan.Node{
		scan,
		&plan.Filter{Input: scan},
		&plan.Project{Input: scan},
		plan.NewJoin(nil, sqlparse.JoinInner, scan, scan, nil),
		plan.NewAggregate(nil, scan, nil, nil),
		&plan.Sort{Input: scan},
		&plan.Limit{Input: scan, Count: 1},
		&plan.Distinct{Input: scan},
	}
	for _, n := range nodes {
		if !full.Allows(n) {
			t.Errorf("FullSQL must allow %T", n)
		}
	}
	so := ScanOnly()
	for _, n := range nodes[1:] {
		if so.Allows(n) {
			t.Errorf("ScanOnly must reject %T", n)
		}
	}
	fo := FilterOnly()
	if !fo.Allows(nodes[1]) || !fo.Allows(nodes[2]) || fo.Allows(nodes[3]) {
		t.Error("FilterOnly must allow filter+project, reject join")
	}
	if full.Allows(&plan.Remote{Source: "s", Child: scan}) {
		t.Error("Remote nodes must never nest inside pushdowns")
	}
}

func TestRelationalUpdatable(t *testing.T) {
	src := relFixture(t)
	if err := src.Insert(context.Background(), "customers", datum.Row{datum.NewInt(9), datum.NewString("Zed"), datum.NewString("north")}); err != nil {
		t.Fatal(err)
	}
	n, err := src.Update(context.Background(), "customers",
		func(r datum.Row) bool { return r[0].Int() == 9 },
		func(r datum.Row) datum.Row { r[2] = datum.NewString("south"); return r })
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	n, err = src.Delete(context.Background(), "customers", func(r datum.Row) bool { return r[0].Int() == 9 })
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := src.Insert(context.Background(), "nope", datum.Row{}); err == nil {
		t.Error("insert into missing table must error")
	}
	if _, err := src.Update(context.Background(), "nope", nil, nil); err == nil {
		t.Error("update on missing table must error")
	}
	if _, err := src.Delete(context.Background(), "nope", nil); err == nil {
		t.Error("delete on missing table must error")
	}
	if _, err := src.SubscribeTable("nope", func(storage.Change) {}); err == nil {
		t.Error("subscribe on missing table must error")
	}
	if _, ok := src.TableVersion("nope"); ok {
		t.Error("version of missing table must be not-ok")
	}
}

// TestRelationalWritesHonorCancellation: a write under a cancelled context
// fails with its error before crossing the link, and changes nothing.
func TestRelationalWritesHonorCancellation(t *testing.T) {
	src := relFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	all := func(datum.Row) bool { return true }
	if err := src.Insert(ctx, "customers", datum.Row{datum.NewInt(9), datum.NewString("Zed"), datum.NewString("north")}); !errors.Is(err, context.Canceled) {
		t.Errorf("insert: err = %v, want context.Canceled", err)
	}
	if _, err := src.Update(ctx, "customers", all, func(r datum.Row) datum.Row { return r }); !errors.Is(err, context.Canceled) {
		t.Errorf("update: err = %v, want context.Canceled", err)
	}
	if _, err := src.Delete(ctx, "customers", all); !errors.Is(err, context.Canceled) {
		t.Errorf("delete: err = %v, want context.Canceled", err)
	}
	if m := src.Link().Metrics(); m.RoundTrips != 0 {
		t.Errorf("cancelled writes made %d round trips", m.RoundTrips)
	}
	rows, err := src.ExecuteCtx(context.Background(), &plan.Scan{Source: "crm", Table: "customers", Alias: "customers",
		Cols: []plan.ColMeta{{Name: "id"}, {Name: "name"}, {Name: "region"}}})
	if err != nil || len(rows) != 3 {
		t.Errorf("table after cancelled writes: %d rows, err %v; want the fixture's 3", len(rows), err)
	}
}

func TestCSVSourceLoadAndTyping(t *testing.T) {
	src := NewCSVSource("files", nil)
	tab, err := src.LoadCSV("readings", "sensor,value,label\n1,2.5,hot\n2,,cold\n3,1.25,")
	if err != nil {
		t.Fatal(err)
	}
	sch := tab.Schema()
	if sch.Columns[0].Kind != datum.KindInt || sch.Columns[1].Kind != datum.KindFloat || sch.Columns[2].Kind != datum.KindString {
		t.Errorf("inferred kinds = %v %v %v", sch.Columns[0].Kind, sch.Columns[1].Kind, sch.Columns[2].Kind)
	}
	if tab.Len() != 3 {
		t.Errorf("rows = %d", tab.Len())
	}
	snap := tab.Snapshot()
	if !snap[1][1].IsNull() {
		t.Error("empty field must load as NULL")
	}
	if _, err := src.LoadCSV("readings", "a\n1"); err == nil {
		t.Error("duplicate table must error")
	}
	if _, err := src.LoadCSV("empty", ""); err == nil {
		t.Error("missing header must error")
	}
}

func TestCSVSourceExecuteFilter(t *testing.T) {
	src := NewCSVSource("files", nil)
	if _, err := src.LoadCSV("t", "a,b\n1,x\n2,y\n3,x"); err != nil {
		t.Fatal(err)
	}
	cols := []plan.ColMeta{{Table: "t", Name: "a", Kind: datum.KindInt}, {Table: "t", Name: "b", Kind: datum.KindString}}
	cond, _ := sqlparse.ParseExpr("b = 'x'")
	rows, err := src.ExecuteCtx(context.Background(), &plan.Filter{Input: scanNode("files", "t", "t", cols), Cond: cond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestDeparse(t *testing.T) {
	cols := custCols()
	scan := scanNode("crm", "customers", "c", cols)
	cond, _ := sqlparse.ParseExpr("region = 'east'")
	proj := &plan.Project{
		Input: &plan.Filter{Input: scan, Cond: cond},
		Exprs: []sqlparse.Expr{&sqlparse.ColumnRef{Table: "c", Column: "name"}},
		Cols:  []plan.ColMeta{{Name: "name", Kind: datum.KindString}},
	}
	sql, err := Deparse(&plan.Limit{Input: &plan.Sort{Input: proj,
		Keys: []plan.SortKey{{Expr: &sqlparse.ColumnRef{Table: "c", Column: "name"}}}}, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT c.name AS name", "FROM crm.customers AS c", "WHERE", "ORDER BY c.name ASC", "LIMIT 5"} {
		if !strings.Contains(sql, want) {
			t.Errorf("deparse missing %q in %q", want, sql)
		}
	}
	// The deparsed text must re-parse.
	if _, err := sqlparse.Parse(sql); err != nil {
		t.Errorf("deparsed SQL does not re-parse: %v\n%s", err, sql)
	}
}

func TestDeparseLeftJoinKeepsRightFilterInOn(t *testing.T) {
	// Regression: a filter under the right input of a LEFT JOIN must stay
	// in the ON clause. Hoisted into the outer WHERE it would reject the
	// NULL-padded rows and silently turn the join into an inner join.
	cols := custCols()
	scanA := scanNode("crm", "customers", "a", cols)
	scanB := scanNode("crm", "customers", "b", cols)
	rightPred, _ := sqlparse.ParseExpr("b.region = 'east'")
	onCond, _ := sqlparse.ParseExpr("a.id = b.id")
	join := plan.NewJoin(nil, sqlparse.JoinLeft, scanA,
		&plan.Filter{Input: scanB, Cond: rightPred}, onCond)
	sql, err := Deparse(join)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "WHERE") {
		t.Errorf("right-side predicate escaped to WHERE: %q", sql)
	}
	if !strings.Contains(sql, "LEFT JOIN") || !strings.Contains(sql, "b.region = 'east'") {
		t.Errorf("deparse = %q", sql)
	}
	if _, err := sqlparse.Parse(sql); err != nil {
		t.Errorf("deparsed SQL does not re-parse: %v\n%s", err, sql)
	}
	// A left-side predicate may still hoist to WHERE: it filters preserved
	// rows the same way before or after the join.
	leftPred, _ := sqlparse.ParseExpr("a.region = 'west'")
	join2 := plan.NewJoin(nil, sqlparse.JoinLeft,
		&plan.Filter{Input: scanA, Cond: leftPred}, scanB, onCond)
	sql2, err := Deparse(join2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql2, "WHERE") || !strings.Contains(sql2, "a.region = 'west'") {
		t.Errorf("left-side predicate should hoist to WHERE: %q", sql2)
	}
}

func TestDeparseAggregateAndJoin(t *testing.T) {
	cols := custCols()
	scanA := scanNode("crm", "customers", "a", cols)
	scanB := scanNode("crm", "customers", "b", cols)
	cond, _ := sqlparse.ParseExpr("a.id = b.id")
	join := plan.NewJoin(nil, sqlparse.JoinInner, scanA, scanB, cond)
	group, _ := sqlparse.ParseExpr("a.region")
	agg := plan.NewAggregate(nil, join, []sqlparse.Expr{group}, []plan.AggSpec{{Func: "COUNT", Star: true}})
	sql, err := Deparse(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"JOIN", "GROUP BY a.region", "COUNT(*)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("deparse missing %q in %q", want, sql)
		}
	}
	if _, err := sqlparse.Parse(sql); err != nil {
		t.Errorf("deparsed SQL does not re-parse: %v\n%s", err, sql)
	}
}

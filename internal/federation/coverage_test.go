package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

func TestCSVSourceMalformedInput(t *testing.T) {
	src := NewCSVSource("files", nil)
	if _, err := src.LoadCSV("bad", "a,b\n\"unterminated"); err == nil {
		t.Error("malformed CSV must error")
	}
	// Ragged rows: the csv reader reports inconsistent field counts.
	if _, err := src.LoadCSV("ragged", "a,b\n1,2,3"); err == nil {
		t.Error("ragged CSV must error")
	}
}

func TestCSVSourceEmptyColumnIsString(t *testing.T) {
	src := NewCSVSource("files", nil)
	tab, err := src.LoadCSV("t", "a,b\n,x\n,y")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema().Columns[0].Kind != datum.KindString {
		t.Errorf("all-empty column kind = %v", tab.Schema().Columns[0].Kind)
	}
}

func TestCSVExecuteRejectsUnknownTableAndForeignScan(t *testing.T) {
	src := NewCSVSource("files", nil)
	if _, err := src.LoadCSV("t", "a\n1"); err != nil {
		t.Fatal(err)
	}
	cols := []plan.ColMeta{{Table: "t", Name: "a", Kind: datum.KindInt}}
	if _, err := src.ExecuteCtx(context.Background(), &plan.Scan{Source: "files", Table: "missing", Alias: "m", Cols: cols}); err == nil {
		t.Error("missing table must error")
	}
	if _, err := src.ExecuteCtx(context.Background(), &plan.Scan{Source: "other", Table: "t", Alias: "t", Cols: cols}); err == nil {
		t.Error("foreign scan must error")
	}
}

func TestRelationalCreateTableDuplicate(t *testing.T) {
	src := NewRelationalSource("s", FullSQL(), nil)
	sch := schema.MustTable("t", []schema.Column{{Name: "a", Kind: datum.KindInt}})
	if _, err := src.CreateTable(sch); err != nil {
		t.Fatal(err)
	}
	if _, err := src.CreateTable(sch); err == nil {
		t.Error("duplicate table must error")
	}
}

func TestRelationalExecuteUnknownTable(t *testing.T) {
	src := NewRelationalSource("s", FullSQL(), nil)
	cols := []plan.ColMeta{{Table: "ghost", Name: "a", Kind: datum.KindInt}}
	if _, err := src.ExecuteCtx(context.Background(), &plan.Scan{Source: "s", Table: "ghost", Alias: "ghost", Cols: cols}); err == nil {
		t.Error("unknown table must error")
	}
}

func TestDeparseUnsupportedNodes(t *testing.T) {
	s := &plan.Scan{Source: "s", Table: "t", Alias: "t"}
	if _, err := Deparse(&plan.Remote{Source: "s", Child: s}); err == nil {
		t.Error("remote nodes must not deparse")
	}
	u := &plan.Union{Inputs: []plan.Node{s, s}}
	if _, err := Deparse(u); err == nil {
		t.Error("union must not deparse")
	}
	// One SELECT cannot filter, project or join an aggregate or a
	// DISTINCT, nor aggregate, filter or join after a LIMIT.
	agg := plan.NewAggregate(nil, s, nil, []plan.AggSpec{{Func: "COUNT", Star: true}})
	limit := &plan.Limit{Input: s, Count: 1}
	distinct := &plan.Distinct{Input: s}
	cond := &sqlparse.Literal{Value: datum.NewBool(true)}
	// Nor join a projection that renames a column, moves it under a
	// view's binding or computes an expression: the join keeps only its
	// inputs' FROM and WHERE.
	project := func(table, name string, e sqlparse.Expr) *plan.Project {
		return &plan.Project{Input: s, Exprs: []sqlparse.Expr{e}, Cols: []plan.ColMeta{{Table: table, Name: name}}}
	}
	id := &sqlparse.ColumnRef{Table: "t", Column: "id"}
	if _, err := Deparse(plan.NewJoin(nil, sqlparse.JoinInner, project("t", "id", id), s, nil)); err != nil {
		t.Errorf("a join over a projection that keeps its names: %v", err)
	}
	for _, n := range []plan.Node{
		plan.NewJoin(nil, sqlparse.JoinInner, project("v", "cid", id), s, nil),
		plan.NewJoin(nil, sqlparse.JoinInner, s, project("v", "id", id), nil),
		plan.NewJoin(nil, sqlparse.JoinLeft, s, project("t", "k", &sqlparse.BinaryExpr{Op: sqlparse.OpAdd, Left: id, Right: cond}), nil),
		&plan.Filter{Input: agg, Cond: cond},
		&plan.Project{Input: agg},
		plan.NewAggregate(nil, limit, nil, []plan.AggSpec{{Func: "COUNT", Star: true}}),
		plan.NewAggregate(nil, distinct, nil, []plan.AggSpec{{Func: "COUNT", Star: true}}),
		&plan.Filter{Input: limit, Cond: cond},
		plan.NewJoin(nil, sqlparse.JoinInner, s, distinct, nil),
		plan.NewJoin(nil, sqlparse.JoinInner, limit, s, nil),
		plan.NewJoin(nil, sqlparse.JoinLeft, s, agg, nil),
	} {
		if sql, err := Deparse(n); err == nil {
			t.Errorf("%s deparsed to %s", plan.Explain(n), sql)
		}
	}
}

func TestDeparseDistinctAndCrossJoin(t *testing.T) {
	s1 := &plan.Scan{Source: "s", Table: "t", Alias: "a"}
	s2 := &plan.Scan{Source: "s", Table: "u", Alias: "b"}
	cross := plan.NewJoin(nil, sqlparse.JoinInner, s1, s2, nil)
	d := &plan.Distinct{Input: cross}
	sql, err := Deparse(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "DISTINCT") || !strings.Contains(sql, "ON TRUE") {
		t.Errorf("deparse = %q", sql)
	}
	if _, err := sqlparse.Parse(sql); err != nil {
		t.Errorf("deparsed SQL does not re-parse: %v", err)
	}
}

func TestValidateSubtreeNestedRemote(t *testing.T) {
	s := &plan.Scan{Source: "s", Table: "t", Alias: "t"}
	nested := &plan.Remote{Source: "s", Child: s}
	if err := validateSubtree("s", FullSQL(), nested); err == nil {
		t.Error("nested Remote must be rejected")
	}
}

// TestCSVLoadWhileScanning loads further tables into a CSV source while
// queries scan the first one. The table registry is shared between loads
// and fetches, so it must be locked; run under -race this fails on an
// unsynchronized map.
func TestCSVLoadWhileScanning(t *testing.T) {
	src := NewCSVSource("files", nil)
	if _, err := src.LoadCSV("t", "a\n1\n2"); err != nil {
		t.Fatal(err)
	}
	scan := &plan.Scan{Source: "files", Table: "t", Alias: "t",
		Cols: []plan.ColMeta{{Table: "t", Name: "a", Kind: datum.KindInt}}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if rows, err := src.ExecuteCtx(context.Background(), scan); err != nil || len(rows) != 2 {
				t.Errorf("scan %d: rows=%d err=%v", i, len(rows), err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := src.LoadCSV(fmt.Sprintf("u%d", i), "a\n1"); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}

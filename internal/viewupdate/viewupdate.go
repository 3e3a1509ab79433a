// Package viewupdate generates the update-side methods a mediated view
// implies — §7 (Rosenthal): "Today, programmers often code Read, Notify of
// changes, and Update methods in a 3GL+SQL. EII typically supports the
// first ... Update methods (e.g., for Java beans) must change the database
// so the Read view is suitably updated. These are not terribly complex
// business processes, but do require semantic choices ... Given the
// choices, the update method should be generated automatically."
//
// GenerateInsert and GenerateDelete analyze a mediated view's definition,
// trace each view column to its base table and column, and emit an
// eai.Process (a saga with compensations, per §4) that applies the change
// to every underlying source. The read view then reflects the update.
package viewupdate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/eai"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// binding maps one view output column to its base column.
type binding struct {
	viewCol string
	source  string
	table   string
	baseCol string
}

// baseTable groups the bindings of one underlying table.
type baseTable struct {
	source string
	table  string
	cols   []binding
}

// analyze plans the view (unoptimized) and traces every output column to a
// base table column. Views with computed output columns are rejected — the
// semantic choice of how to invert an expression is exactly what cannot be
// automated, so the generator demands direct column mappings.
func analyze(e *core.Engine, viewName string) ([]baseTable, error) {
	v, ok := e.Catalog().View(viewName)
	if !ok {
		return nil, fmt.Errorf("viewupdate: unknown view %q", viewName)
	}
	root, err := plan.Build(e.Catalog(), v.Query)
	if err != nil {
		return nil, fmt.Errorf("viewupdate: planning view %s: %w", viewName, err)
	}
	// Join/filter equalities propagate values: a view column bound to
	// hr.employees.emp_id also supplies facilities.offices.emp_id when
	// the view joins on their equality. Collect those equivalences.
	equiv := collectEquivalences(root)

	byTable := map[string]*baseTable{}
	var order []string
	add := func(viewCol, src, tab, base string) {
		key := src + "." + tab
		bt := byTable[key]
		if bt == nil {
			bt = &baseTable{source: src, table: tab}
			byTable[key] = bt
			order = append(order, key)
		}
		for _, existing := range bt.cols {
			if strings.EqualFold(existing.baseCol, base) {
				return
			}
		}
		bt.cols = append(bt.cols, binding{viewCol: viewCol, source: src, table: tab, baseCol: base})
	}
	for _, col := range root.Columns() {
		src, tab, base, ok := trace(root, &sqlparse.ColumnRef{Table: col.Table, Column: col.Name})
		if !ok {
			return nil, fmt.Errorf("viewupdate: view %s column %q is computed; updates through it need a manual process", viewName, col.Name)
		}
		add(col.Name, src, tab, base)
		for _, eq := range equiv.classOf(baseCol{src, tab, base}) {
			add(col.Name, eq.source, eq.table, eq.column)
		}
	}
	// Every scanned base table must be reachable, or inserts would leave
	// dangling join partners.
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && s.Source != "" {
			key := s.Source + "." + s.Table
			if byTable[key] == nil {
				byTable[key] = &baseTable{source: s.Source, table: s.Table}
				order = append(order, key)
			}
		}
	})
	sort.Strings(order)
	out := make([]baseTable, 0, len(order))
	for _, key := range order {
		out = append(out, *byTable[key])
	}
	return out, nil
}

// baseCol identifies a base-table column.
type baseCol struct {
	source, table, column string
}

// equivalences is a union of base columns equated by join/filter
// predicates.
type equivalences struct {
	adj map[baseCol][]baseCol
}

func (e *equivalences) link(a, b baseCol) {
	if e.adj == nil {
		e.adj = map[baseCol][]baseCol{}
	}
	e.adj[a] = append(e.adj[a], b)
	e.adj[b] = append(e.adj[b], a)
}

// classOf returns every column transitively equated with c (excluding c).
func (e *equivalences) classOf(c baseCol) []baseCol {
	seen := map[baseCol]bool{c: true}
	var out []baseCol
	stack := []baseCol{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range e.adj[cur] {
			if seen[next] {
				continue
			}
			seen[next] = true
			out = append(out, next)
			stack = append(stack, next)
		}
	}
	return out
}

// collectEquivalences walks the plan gathering column equalities from join
// conditions and filters.
func collectEquivalences(root plan.Node) *equivalences {
	eq := &equivalences{}
	record := func(scope plan.Node, cond sqlparse.Expr) {
		for _, c := range sqlparse.SplitConjuncts(cond) {
			b, ok := c.(*sqlparse.BinaryExpr)
			if !ok || b.Op != sqlparse.OpEq {
				continue
			}
			lr, lok := b.Left.(*sqlparse.ColumnRef)
			rr, rok := b.Right.(*sqlparse.ColumnRef)
			if !lok || !rok {
				continue
			}
			ls, lt, lc, lfound := trace(scope, lr)
			rs, rt, rc, rfound := trace(scope, rr)
			if lfound && rfound {
				eq.link(baseCol{ls, lt, lc}, baseCol{rs, rt, rc})
			}
		}
	}
	plan.Walk(root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Join:
			if x.Cond != nil {
				record(x, x.Cond)
			}
		case *plan.Filter:
			record(x.Input, x.Cond)
		case *plan.Scan, *plan.Project, *plan.Aggregate, *plan.Sort,
			*plan.Limit, *plan.Distinct, *plan.Union, *plan.Remote:
			// No join/filter predicates to harvest equalities from.
		default:
			panic(fmt.Sprintf("viewupdate: equalities missing case for %T", n))
		}
	})
	return eq
}

// trace follows a column reference down the plan to the scan that produces
// it; ok is false when the column is computed.
func trace(n plan.Node, ref *sqlparse.ColumnRef) (source, table, column string, ok bool) {
	switch x := n.(type) {
	case *plan.Scan:
		if _, found := plan.FindColumn(x.Cols, ref); !found {
			return "", "", "", false
		}
		return x.Source, x.Table, ref.Column, true
	case *plan.Project:
		idx, found := plan.FindColumn(x.Cols, ref)
		if !found {
			return "", "", "", false
		}
		inner, isRef := x.Exprs[idx].(*sqlparse.ColumnRef)
		if !isRef {
			return "", "", "", false
		}
		return trace(x.Input, inner)
	case *plan.Join:
		if _, found := plan.FindColumn(x.Left.Columns(), ref); found {
			return trace(x.Left, ref)
		}
		if _, found := plan.FindColumn(x.Right.Columns(), ref); found {
			return trace(x.Right, ref)
		}
		return "", "", "", false
	case *plan.Filter:
		return trace(x.Input, ref)
	case *plan.Distinct:
		return trace(x.Input, ref)
	case *plan.Sort:
		return trace(x.Input, ref)
	case *plan.Limit:
		return trace(x.Input, ref)
	case *plan.Aggregate, *plan.Union, *plan.Remote:
		// These end the trace: their outputs are not directly writable.
		return "", "", "", false
	default:
		panic(fmt.Sprintf("viewupdate: trace missing case for %T", n))
	}
}

// GenerateInsert builds the saga that inserts one logical view row into
// every base table the view reads. values maps view column names to the
// new datums; every NOT NULL base column must be covered.
func GenerateInsert(e *core.Engine, viewName string, values map[string]datum.Datum) (*eai.Process, error) {
	tables, err := analyze(e, viewName)
	if err != nil {
		return nil, err
	}
	norm := make(map[string]datum.Datum, len(values))
	for k, v := range values {
		norm[strings.ToLower(k)] = v
	}
	proc := &eai.Process{Name: "insert-into-" + viewName}
	for _, bt := range tables {
		src, upd, err := updatableSource(e, bt.source)
		if err != nil {
			return nil, err
		}
		sch, ok := src.Catalog().Table(bt.table)
		if !ok {
			return nil, fmt.Errorf("viewupdate: source %s lost table %s", bt.source, bt.table)
		}
		row := make(datum.Row, sch.Arity())
		for i := range row {
			row[i] = datum.Null
		}
		for _, b := range bt.cols {
			idx := sch.ColumnIndex(b.baseCol)
			if idx < 0 {
				return nil, fmt.Errorf("viewupdate: column %s missing from %s.%s", b.baseCol, bt.source, bt.table)
			}
			if v, ok := norm[strings.ToLower(b.viewCol)]; ok {
				row[idx] = v
			}
		}
		for i, c := range sch.Columns {
			if !c.Nullable && row[i].IsNull() {
				return nil, fmt.Errorf("viewupdate: view %s gives no value for NOT NULL column %s.%s.%s",
					viewName, bt.source, bt.table, c.Name)
			}
		}
		insertRow := datum.CloneRow(row)
		tableName := bt.table
		proc.Steps = append(proc.Steps, eai.Step{
			Name: fmt.Sprintf("insert %s.%s", bt.source, bt.table),
			Do: func(*eai.Context) error {
				return upd.Insert(tableName, insertRow)
			},
			Compensate: func(*eai.Context) error {
				_, err := upd.Delete(tableName, rowEqualPred(insertRow))
				return err
			},
		})
	}
	return proc, nil
}

// GenerateDelete builds the saga that removes a logical view row: each base
// table deletes the rows matching the view's key column values, capturing
// the removed rows so compensation can restore them. ctx bounds that
// capture — the saga's one read through the sources' query path — when the
// process runs.
func GenerateDelete(ctx context.Context, e *core.Engine, viewName string, keyValues map[string]datum.Datum) (*eai.Process, error) {
	tables, err := analyze(e, viewName)
	if err != nil {
		return nil, err
	}
	norm := make(map[string]datum.Datum, len(keyValues))
	for k, v := range keyValues {
		norm[strings.ToLower(k)] = v
	}
	proc := &eai.Process{Name: "delete-from-" + viewName}
	for _, bt := range tables {
		src, upd, err := updatableSource(e, bt.source)
		if err != nil {
			return nil, err
		}
		sch, ok := src.Catalog().Table(bt.table)
		if !ok {
			return nil, fmt.Errorf("viewupdate: source %s lost table %s", bt.source, bt.table)
		}
		// Columns of this table constrained by the provided keys.
		type keyCol struct {
			idx int
			val datum.Datum
		}
		var keys []keyCol
		for _, b := range bt.cols {
			if v, ok := norm[strings.ToLower(b.viewCol)]; ok {
				if idx := sch.ColumnIndex(b.baseCol); idx >= 0 {
					keys = append(keys, keyCol{idx: idx, val: v})
				}
			}
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("viewupdate: no key value constrains %s.%s; refusing to delete everything", bt.source, bt.table)
		}
		pred := func(r datum.Row) bool {
			for _, k := range keys {
				if !datum.Equal(r[k.idx], k.val) {
					return false
				}
			}
			return true
		}
		tableName := bt.table
		ctxKey := fmt.Sprintf("removed:%s.%s", bt.source, bt.table)
		proc.Steps = append(proc.Steps, eai.Step{
			Name: fmt.Sprintf("delete %s.%s", bt.source, bt.table),
			Do: func(pc *eai.Context) error {
				// Capture the rows first so compensation can
				// restore them.
				removed, err := capturedRows(ctx, src, tableName, pred)
				if err != nil {
					return err
				}
				pc.Set(ctxKey, removed)
				_, err = upd.Delete(tableName, pred)
				return err
			},
			Compensate: func(pc *eai.Context) error {
				v, ok := pc.Get(ctxKey)
				if !ok {
					return nil
				}
				for _, r := range v.([]datum.Row) {
					if err := upd.Insert(tableName, r); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}
	return proc, nil
}

func updatableSource(e *core.Engine, name string) (federation.Source, federation.Updatable, error) {
	src, ok := e.Source(name)
	if !ok {
		return nil, nil, fmt.Errorf("viewupdate: unknown source %q", name)
	}
	upd, ok := src.(federation.Updatable)
	if !ok {
		return nil, nil, fmt.Errorf("viewupdate: source %s is read-only", name)
	}
	return src, upd, nil
}

// capturedRows fetches the rows a delete will remove, via the source's
// query path so the link accounting stays honest.
func capturedRows(ctx context.Context, src federation.Source, table string, pred func(datum.Row) bool) ([]datum.Row, error) {
	sch, ok := src.Catalog().Table(table)
	if !ok {
		return nil, fmt.Errorf("viewupdate: source %s lost table %s", src.Name(), table)
	}
	cols := make([]plan.ColMeta, sch.Arity())
	for i, c := range sch.Columns {
		cols[i] = plan.ColMeta{Table: table, Name: c.Name, Kind: c.Kind}
	}
	rows, err := src.ExecuteCtx(ctx, &plan.Scan{Source: src.Name(), Table: sch.Name, Alias: sch.Name, Cols: cols})
	if err != nil {
		return nil, err
	}
	var out []datum.Row
	for _, r := range rows {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

func rowEqualPred(want datum.Row) func(datum.Row) bool {
	return func(r datum.Row) bool {
		if len(r) != len(want) {
			return false
		}
		for i := range r {
			if datum.Compare(r[i], want[i]) != 0 {
				return false
			}
		}
		return true
	}
}

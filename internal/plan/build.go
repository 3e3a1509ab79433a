package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/sqlparse"
)

// maxViewDepth bounds view-unfolding recursion to catch cyclic definitions.
const maxViewDepth = 32

// Build turns a parsed SELECT into a logical plan against a catalog
// reader — normally an immutable catalog.Snapshot, so one query resolves
// every name against a single consistent schema version. View references
// are unfolded in place — this is the query reformulation step the paper
// describes: a query over the mediated schema becomes a query over source
// tables. Build never writes into sel or into a stored view's AST, so
// views unfold straight from the catalog and any number of planners may
// read one concurrently.
func Build(cat catalog.Reader, sel *sqlparse.Select) (Node, error) {
	b := &builder{catalog: cat}
	return b.buildSelect(sel, 0)
}

type builder struct {
	catalog catalog.Reader
	anon    int // counter for generated aliases
}

func (b *builder) buildSelect(sel *sqlparse.Select, depth int) (Node, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("plan: view nesting exceeds %d levels (cyclic view definition?)", maxViewDepth)
	}

	// FROM clause: cross-join the top-level refs.
	var root Node
	for _, tr := range sel.From {
		n, err := b.buildTableRef(tr, depth)
		if err != nil {
			return nil, err
		}
		if root == nil {
			root = n
		} else {
			root = NewJoin(sqlparse.JoinInner, root, n, nil)
		}
	}
	if root == nil {
		// FROM-less select: a single empty row.
		root = &Scan{Source: "", Table: "", Alias: "$dual"}
	}

	// WHERE.
	if sel.Where != nil {
		if sqlparse.ContainsAggregate(sel.Where) {
			return nil, fmt.Errorf("plan: aggregate functions are not allowed in WHERE")
		}
		if err := b.checkRefs(sel.Where, root.Columns()); err != nil {
			return nil, err
		}
		root = &Filter{Input: root, Cond: sel.Where}
	}

	// Expand stars in the select list.
	items, err := expandStars(sel.Items, root.Columns())
	if err != nil {
		return nil, err
	}

	// Aggregation.
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if sqlparse.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	var having sqlparse.Expr
	orderBy := sel.OrderBy
	if hasAgg {
		root, items, having, orderBy, err = b.buildAggregate(root, sel, items)
		if err != nil {
			return nil, err
		}
		if having != nil {
			root = &Filter{Input: root, Cond: having}
		}
	}

	// Final projection.
	proj := &Project{Input: root}
	for i, it := range items {
		if err := b.checkRefs(it.Expr, root.Columns()); err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		proj.Exprs = append(proj.Exprs, it.Expr)
		proj.Cols = append(proj.Cols, ColMeta{Name: name, Kind: inferKind(it.Expr, root.Columns())})
	}
	var out Node = proj

	// DISTINCT.
	if sel.Distinct {
		out = &Distinct{Input: out}
	}

	// ORDER BY: keys resolve against the projection output (aliases)
	// first; if a key needs input columns not in the output, widen the
	// projection, sort, then narrow again.
	if len(orderBy) > 0 {
		out, err = b.buildOrderBy(out, proj, orderBy, sel.Distinct, root)
		if err != nil {
			return nil, err
		}
	}

	// LIMIT / OFFSET.
	if sel.Limit != nil || sel.Offset != nil {
		count := int64(-1)
		offset := int64(0)
		if sel.Limit != nil {
			count, err = constInt(sel.Limit)
			if err != nil {
				return nil, fmt.Errorf("plan: LIMIT must be a constant integer: %w", err)
			}
			if count < 0 {
				return nil, fmt.Errorf("plan: LIMIT must be non-negative")
			}
		}
		if sel.Offset != nil {
			offset, err = constInt(sel.Offset)
			if err != nil {
				return nil, fmt.Errorf("plan: OFFSET must be a constant integer: %w", err)
			}
			if offset < 0 {
				return nil, fmt.Errorf("plan: OFFSET must be non-negative")
			}
		}
		out = &Limit{Input: out, Count: count, Offset: offset}
	}

	// UNION ALL.
	if sel.UnionAll != nil {
		rest, err := b.buildSelect(sel.UnionAll, depth)
		if err != nil {
			return nil, err
		}
		if len(rest.Columns()) != len(out.Columns()) {
			return nil, fmt.Errorf("plan: UNION ALL branches have %d and %d columns",
				len(out.Columns()), len(rest.Columns()))
		}
		// Flatten nested unions.
		inputs := []Node{out}
		if u, ok := rest.(*Union); ok {
			inputs = append(inputs, u.Inputs...)
		} else {
			inputs = append(inputs, rest)
		}
		out = &Union{Inputs: inputs}
	}
	return out, nil
}

func (b *builder) buildOrderBy(out Node, proj *Project, orderBy []sqlparse.OrderItem, distinct bool, preProj Node) (Node, error) {
	// Try resolving all keys against the visible output.
	allVisible := true
	for _, o := range orderBy {
		if err := b.checkRefs(o.Expr, out.Columns()); err != nil {
			allVisible = false
			break
		}
	}
	keys := make([]SortKey, len(orderBy))
	for i, o := range orderBy {
		keys[i] = SortKey{Expr: o.Expr, Desc: o.Desc}
	}
	if allVisible {
		return &Sort{Input: out, Keys: keys}, nil
	}
	if distinct {
		return nil, fmt.Errorf("plan: with DISTINCT, ORDER BY must reference select-list columns")
	}
	// Widen: project visible exprs + sort exprs, sort, then narrow.
	wide := &Project{Input: preProj}
	wide.Exprs = append(wide.Exprs, proj.Exprs...)
	wide.Cols = append(wide.Cols, proj.Cols...)
	for i, o := range orderBy {
		if err := b.checkRefs(o.Expr, preProj.Columns()); err != nil {
			return nil, fmt.Errorf("plan: ORDER BY key %d: %w", i+1, err)
		}
		name := fmt.Sprintf("$sort%d", i)
		wide.Exprs = append(wide.Exprs, o.Expr)
		wide.Cols = append(wide.Cols, ColMeta{Table: "$order", Name: name, Kind: inferKind(o.Expr, preProj.Columns())})
		keys[i] = SortKey{Expr: &sqlparse.ColumnRef{Table: "$order", Column: name}, Desc: o.Desc}
	}
	sorted := &Sort{Input: wide, Keys: keys}
	narrow := &Project{Input: sorted}
	for _, c := range proj.Cols {
		narrow.Exprs = append(narrow.Exprs, &sqlparse.ColumnRef{Column: c.Name})
		narrow.Cols = append(narrow.Cols, c)
	}
	return narrow, nil
}

// buildAggregate normalizes a grouped select: it collects aggregate calls
// from the select list, HAVING and ORDER BY, builds the Aggregate node, and
// returns the post-aggregation select items, HAVING and ORDER BY keys
// rewritten to reference the aggregate's output columns.
func (b *builder) buildAggregate(input Node, sel *sqlparse.Select, items []sqlparse.SelectItem) (Node, []sqlparse.SelectItem, sqlparse.Expr, []sqlparse.OrderItem, error) {
	inCols := input.Columns()
	for _, g := range sel.GroupBy {
		if sqlparse.ContainsAggregate(g) {
			return nil, nil, nil, nil, fmt.Errorf("plan: aggregate functions are not allowed in GROUP BY")
		}
		if err := b.checkRefs(g, inCols); err != nil {
			return nil, nil, nil, nil, err
		}
	}

	var aggs []AggSpec
	seen := map[string]int{}
	collect := func(e sqlparse.Expr) error {
		var werr error
		sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
			f, ok := x.(*sqlparse.FuncExpr)
			if !ok || !f.IsAggregate() {
				return
			}
			key := f.SQL()
			if _, dup := seen[key]; dup {
				return
			}
			sp := AggSpec{Func: f.Name, Distinct: f.Distinct, Star: f.Star}
			if !f.Star {
				if len(f.Args) != 1 {
					werr = fmt.Errorf("plan: %s takes exactly one argument", f.Name)
					return
				}
				sp.Arg = f.Args[0]
				if sqlparse.ContainsAggregate(sp.Arg) {
					werr = fmt.Errorf("plan: nested aggregate %s", key)
					return
				}
				if err := b.checkRefs(sp.Arg, inCols); err != nil {
					werr = err
					return
				}
			}
			seen[key] = len(aggs)
			aggs = append(aggs, sp)
		})
		return werr
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	// ORDER BY may also contain aggregates (e.g. ORDER BY COUNT(*)).
	for _, o := range sel.OrderBy {
		if sqlparse.ContainsAggregate(o.Expr) {
			if err := collect(o.Expr); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}

	agg := NewAggregate(input, sel.GroupBy, aggs)

	// Rewrite post-aggregation expressions: aggregate calls and group-by
	// expressions become references to the aggregate's output columns.
	rewrite := func(e sqlparse.Expr) (sqlparse.Expr, error) {
		out := rewriteAgg(e, sel.GroupBy)
		// All remaining column refs must resolve against agg output.
		if err := b.checkRefs(out, agg.Columns()); err != nil {
			return nil, fmt.Errorf("plan: expression %q must appear in GROUP BY or be aggregated: %w", e.SQL(), err)
		}
		return out, nil
	}
	newItems := make([]sqlparse.SelectItem, len(items))
	for i, it := range items {
		ne, err := rewrite(it.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		newItems[i] = sqlparse.SelectItem{Expr: ne, Alias: it.Alias}
	}
	var having sqlparse.Expr
	if sel.Having != nil {
		ne, err := rewrite(sel.Having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		having = ne
	}
	// ORDER BY keys are resolved later, against the projection or the
	// aggregate output.
	var orderBy []sqlparse.OrderItem
	if len(sel.OrderBy) > 0 {
		orderBy = make([]sqlparse.OrderItem, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			orderBy[i] = sqlparse.OrderItem{Expr: rewriteAgg(o.Expr, sel.GroupBy), Desc: o.Desc}
		}
	}
	return agg, newItems, having, orderBy, nil
}

// rewriteAgg replaces aggregate calls and group-by-equal subexpressions
// with column references named by their rendered SQL, matching the output
// columns NewAggregate produces.
func rewriteAgg(e sqlparse.Expr, groupBy []sqlparse.Expr) sqlparse.Expr {
	if e == nil {
		return nil
	}
	for _, g := range groupBy {
		if e.SQL() == g.SQL() {
			return &sqlparse.ColumnRef{Column: g.SQL()}
		}
	}
	switch x := e.(type) {
	case *sqlparse.FuncExpr:
		if x.IsAggregate() {
			return &sqlparse.ColumnRef{Column: x.SQL()}
		}
		args := make([]sqlparse.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewriteAgg(a, groupBy)
		}
		return &sqlparse.FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args}
	case *sqlparse.BinaryExpr:
		return &sqlparse.BinaryExpr{Op: x.Op, Left: rewriteAgg(x.Left, groupBy), Right: rewriteAgg(x.Right, groupBy)}
	case *sqlparse.UnaryExpr:
		return &sqlparse.UnaryExpr{Op: x.Op, Child: rewriteAgg(x.Child, groupBy)}
	case *sqlparse.IsNullExpr:
		return &sqlparse.IsNullExpr{Child: rewriteAgg(x.Child, groupBy), Not: x.Not}
	case *sqlparse.InExpr:
		list := make([]sqlparse.Expr, len(x.List))
		for i, a := range x.List {
			list[i] = rewriteAgg(a, groupBy)
		}
		return &sqlparse.InExpr{Child: rewriteAgg(x.Child, groupBy), List: list, Not: x.Not}
	case *sqlparse.BetweenExpr:
		return &sqlparse.BetweenExpr{
			Child: rewriteAgg(x.Child, groupBy),
			Lo:    rewriteAgg(x.Lo, groupBy),
			Hi:    rewriteAgg(x.Hi, groupBy),
			Not:   x.Not,
		}
	case *sqlparse.CaseExpr:
		whens := make([]sqlparse.CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = sqlparse.CaseWhen{Cond: rewriteAgg(w.Cond, groupBy), Result: rewriteAgg(w.Result, groupBy)}
		}
		return &sqlparse.CaseExpr{Whens: whens, Else: rewriteAgg(x.Else, groupBy)}
	case *sqlparse.CastExpr:
		return &sqlparse.CastExpr{Child: rewriteAgg(x.Child, groupBy), Type: x.Type}
	case *sqlparse.KeyFilterExpr:
		return &sqlparse.KeyFilterExpr{Child: rewriteAgg(x.Child, groupBy), Set: x.Set}
	case *sqlparse.Literal, *sqlparse.Param, *sqlparse.ColumnRef:
		return e // leaves: nothing aggregate-shaped beneath
	case *sqlparse.ExistsExpr, *sqlparse.InSubquery:
		// Subquery expressions are pre-evaluated by the engine before
		// planning; aggregate rewriting does not descend into subquery
		// scopes.
		return e
	default:
		panic(fmt.Sprintf("plan: rewriteAgg missing case for %T", e))
	}
}

func (b *builder) buildTableRef(tr sqlparse.TableRef, depth int) (Node, error) {
	switch t := tr.(type) {
	case *sqlparse.BaseTable:
		res, err := b.catalog.Resolve(t.Source, t.Name)
		if err != nil {
			return nil, err
		}
		alias := t.Alias
		if res.View != nil {
			// View unfolding: build the view body, then rename its
			// outputs under the view's binding name.
			sub, err := b.buildSelect(res.View.Query, depth+1)
			if err != nil {
				return nil, fmt.Errorf("plan: unfolding view %s: %w", res.View.Name, err)
			}
			if alias == "" {
				alias = res.View.Name
			}
			return renameOutputs(sub, alias), nil
		}
		if alias == "" {
			alias = t.Name
		}
		cols := make([]ColMeta, res.Table.Arity())
		for i, c := range res.Table.Columns {
			cols[i] = ColMeta{Table: alias, Name: c.Name, Kind: c.Kind}
		}
		return &Scan{Source: res.Source, Table: res.Table.Name, Alias: alias, Cols: cols}, nil
	case *sqlparse.Join:
		left, err := b.buildTableRef(t.Left, depth)
		if err != nil {
			return nil, err
		}
		right, err := b.buildTableRef(t.Right, depth)
		if err != nil {
			return nil, err
		}
		j := NewJoin(t.Type, left, right, t.On)
		if err := b.checkRefs(t.On, j.Columns()); err != nil {
			return nil, err
		}
		return j, nil
	case *sqlparse.SubqueryTable:
		sub, err := b.buildSelect(t.Query, depth+1)
		if err != nil {
			return nil, err
		}
		return renameOutputs(sub, t.Alias), nil
	default:
		return nil, fmt.Errorf("plan: unsupported table reference %T", tr)
	}
}

// renameOutputs wraps a node in a projection that re-qualifies its output
// columns under the given binding name.
func renameOutputs(n Node, alias string) Node {
	in := n.Columns()
	p := &Project{Input: n}
	for _, c := range in {
		ref := &sqlparse.ColumnRef{Column: c.Name}
		if c.Table != "" {
			ref.Table = c.Table
		}
		p.Exprs = append(p.Exprs, ref)
		p.Cols = append(p.Cols, ColMeta{Table: alias, Name: c.Name, Kind: c.Kind})
	}
	return p
}

// expandStars replaces * and alias.* with explicit column references.
func expandStars(items []sqlparse.SelectItem, cols []ColMeta) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range cols {
			if strings.HasPrefix(c.Name, "$") {
				continue
			}
			if it.TableQual != "" && !strings.EqualFold(c.Table, it.TableQual) {
				continue
			}
			ref := &sqlparse.ColumnRef{Table: c.Table, Column: c.Name}
			out = append(out, sqlparse.SelectItem{Expr: ref, Alias: c.Name})
			matched = true
		}
		if !matched {
			if it.TableQual != "" {
				return nil, fmt.Errorf("plan: %s.* matches no columns", it.TableQual)
			}
			return nil, fmt.Errorf("plan: * matches no columns (empty FROM?)")
		}
	}
	return out, nil
}

// checkRefs validates that every column reference in e resolves against
// cols. Subqueries inside EXISTS are not checked here (they are rejected or
// pre-evaluated by the mediator before planning).
func (b *builder) checkRefs(e sqlparse.Expr, cols []ColMeta) error {
	if e == nil {
		return nil
	}
	var err error
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if err != nil {
			return
		}
		switch r := x.(type) {
		case *sqlparse.ColumnRef:
			if _, rerr := ResolveColumn(cols, r); rerr != nil {
				err = rerr
			}
		case *sqlparse.ExistsExpr:
			err = fmt.Errorf("plan: EXISTS subqueries must be pre-evaluated by the mediator")
		case *sqlparse.InSubquery:
			err = fmt.Errorf("plan: IN subqueries must be pre-evaluated by the mediator")
		case *sqlparse.Literal, *sqlparse.Param, *sqlparse.BinaryExpr,
			*sqlparse.UnaryExpr, *sqlparse.IsNullExpr, *sqlparse.InExpr,
			*sqlparse.BetweenExpr, *sqlparse.FuncExpr, *sqlparse.CaseExpr,
			*sqlparse.CastExpr, *sqlparse.KeyFilterExpr:
			// No node-local reference to validate; WalkExprs visits
			// their children on its own.
		default:
			err = fmt.Errorf("plan: checkRefs missing case for %T", x)
		}
	})
	return err
}

// constInt evaluates a constant integer expression (literal only).
func constInt(e sqlparse.Expr) (int64, error) {
	lit, ok := e.(*sqlparse.Literal)
	if !ok {
		return 0, fmt.Errorf("expected integer literal, got %s", e.SQL())
	}
	v, ok := lit.Value.AsInt()
	if !ok {
		return 0, fmt.Errorf("expected integer literal, got %s", e.SQL())
	}
	return v, nil
}

// inferKind computes a best-effort output kind for an expression.
func inferKind(e sqlparse.Expr, cols []ColMeta) datum.Kind {
	if e == nil {
		return datum.KindNull
	}
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Value.Kind()
	case *sqlparse.ColumnRef:
		if m, ok := findCol(cols, x); ok {
			return m.Kind
		}
		return datum.KindNull
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case sqlparse.OpAnd, sqlparse.OpOr, sqlparse.OpEq, sqlparse.OpNe,
			sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.OpLike:
			return datum.KindBool
		case sqlparse.OpConcat:
			return datum.KindString
		case sqlparse.OpDiv:
			return datum.KindFloat
		default:
			lk := inferKind(x.Left, cols)
			rk := inferKind(x.Right, cols)
			if lk == datum.KindFloat || rk == datum.KindFloat {
				return datum.KindFloat
			}
			if lk == datum.KindInt && rk == datum.KindInt {
				return datum.KindInt
			}
			return datum.KindNull
		}
	case *sqlparse.UnaryExpr:
		if x.Op == "NOT" {
			return datum.KindBool
		}
		return inferKind(x.Child, cols)
	case *sqlparse.IsNullExpr, *sqlparse.InExpr, *sqlparse.BetweenExpr, *sqlparse.ExistsExpr:
		return datum.KindBool
	case *sqlparse.FuncExpr:
		switch x.Name {
		case "COUNT", "LENGTH", "ABS":
			if x.Name == "ABS" && len(x.Args) == 1 {
				return inferKind(x.Args[0], cols)
			}
			return datum.KindInt
		case "SUM", "AVG":
			return datum.KindFloat
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				return inferKind(x.Args[0], cols)
			}
			return datum.KindNull
		case "UPPER", "LOWER", "SUBSTR", "CONCAT", "TRIM":
			return datum.KindString
		case "COALESCE":
			for _, a := range x.Args {
				if k := inferKind(a, cols); k != datum.KindNull {
					return k
				}
			}
			return datum.KindNull
		default:
			return datum.KindNull
		}
	case *sqlparse.CaseExpr:
		for _, w := range x.Whens {
			if k := inferKind(w.Result, cols); k != datum.KindNull {
				return k
			}
		}
		return inferKind(x.Else, cols)
	case *sqlparse.CastExpr:
		return x.Type
	case *sqlparse.Param:
		// Parameter kinds are unknown until bind time.
		return datum.KindNull
	case *sqlparse.InSubquery, *sqlparse.KeyFilterExpr:
		return datum.KindBool
	default:
		panic(fmt.Sprintf("plan: inferKind missing case for %T", e))
	}
}

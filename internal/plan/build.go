package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/sqlparse"
)

// maxViewDepth bounds view-unfolding recursion to catch cyclic definitions.
const maxViewDepth = 32

// maxSubqueries bounds the subquery joins of one statement. A NOT IN, or
// an IN that is not a top-level conjunct, plans its subquery twice, so
// nesting doubles the plan at each level; the bound stops that early.
const maxSubqueries = 16

// Build turns a parsed SELECT into a logical plan against a catalog
// reader — normally an immutable catalog.Snapshot, so one query resolves
// every name against a single consistent schema version. View references
// are unfolded in place — this is the query reformulation step the paper
// describes: a query over the mediated schema becomes a query over source
// tables. Build never writes into sel or into a stored view's AST, so
// views unfold straight from the catalog and any number of planners may
// read one concurrently.
func Build(cat catalog.Reader, sel *sqlparse.Select) (Node, error) {
	return BuildIn(nil, cat, sel)
}

// BuildIn is Build with every node, list and expression the plan adds
// allocated from a (heap when a is nil; see New). The plan dies with a;
// one that must outlive it goes through Retain.
func BuildIn(a *sqlparse.Arena, cat catalog.Reader, sel *sqlparse.Select) (Node, error) {
	b := builder{catalog: cat, arena: a}
	return b.buildSelect(sel, 0)
}

type builder struct {
	catalog catalog.Reader
	arena   *sqlparse.Arena
	// subqueries counts the subquery joins, at most maxSubqueries; each
	// qualifies the columns it adds ($sq1.$k), whose "$" no written name
	// holds and * skips.
	subqueries int
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
			root = NewJoin(b.arena, sqlparse.JoinInner, root, n, nil)
		}
	}
	if root == nil {
		// FROM-less select: a single empty row.
		root = sqlparse.New(b.arena, Scan{Source: "", Table: "", Alias: "$dual"})
	}

	// WHERE.
	if sel.Where != nil {
		if sqlparse.ContainsAggregate(sel.Where) {
			return nil, fmt.Errorf("plan: aggregate functions are not allowed in WHERE")
		}
		var err error
		if root, err = b.filter(root, sel.Where, depth); err != nil {
			return nil, err
		}
	}

	// Expand stars in the select list.
	items, err := b.expandStars(sel.Items, root.Columns())
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
			if root, err = b.filter(root, having, depth); err != nil {
				return nil, err
			}
		}
	}

	// Final projection.
	proj := sqlparse.New(b.arena, Project{Input: root, Exprs: sqlparse.Make[sqlparse.Expr](b.arena, len(items)), Cols: sqlparse.Make[ColMeta](b.arena, len(items))})
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
		proj.Exprs[i] = it.Expr
		proj.Cols[i] = ColMeta{Name: name, Kind: inferKind(it.Expr, root.Columns())}
	}
	var out Node = proj

	// DISTINCT.
	if sel.Distinct {
		out = sqlparse.New(b.arena, Distinct{Input: out})
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
		out = sqlparse.New(b.arena, Limit{Input: out, Count: count, Offset: offset})
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
		restInputs := []Node{rest}
		if u, ok := rest.(*Union); ok {
			restInputs = u.Inputs
		}
		inputs := sqlparse.Make[Node](b.arena, 1+len(restInputs))
		inputs[0] = out
		copy(inputs[1:], restInputs)
		out = sqlparse.New(b.arena, Union{Inputs: inputs})
	}
	return out, nil
}

func (b *builder) buildOrderBy(out Node, proj *Project, orderBy []sqlparse.OrderItem, distinct bool, preProj Node) (Node, error) {
	// Try resolving all keys against the visible output.
	allVisible := true
	for _, o := range orderBy {
		if unresolved(o.Expr, out.Columns()) != nil {
			allVisible = false
			break
		}
	}
	keys := sqlparse.Make[SortKey](b.arena, len(orderBy))
	if allVisible {
		for i, o := range orderBy {
			keys[i] = SortKey{Expr: o.Expr, Desc: o.Desc}
		}
		return sqlparse.New(b.arena, Sort{Input: out, Keys: keys}), nil
	}
	if distinct {
		return nil, fmt.Errorf("plan: with DISTINCT, ORDER BY must reference select-list columns")
	}
	// Widen: project visible exprs + sort exprs, sort, then narrow. Each
	// list is sized once, and the references come from one block each.
	nv, nw := len(proj.Exprs), len(proj.Exprs)+len(orderBy)
	wide := sqlparse.New(b.arena, Project{Input: preProj, Exprs: sqlparse.Make[sqlparse.Expr](b.arena, nw), Cols: sqlparse.Make[ColMeta](b.arena, nw)})
	copy(wide.Exprs, proj.Exprs)
	copy(wide.Cols, proj.Cols)
	sortRefs := sqlparse.Make[sqlparse.ColumnRef](b.arena, len(orderBy))
	for i, o := range orderBy {
		if err := b.checkRefs(o.Expr, preProj.Columns()); err != nil {
			return nil, fmt.Errorf("plan: ORDER BY key %d: %w", i+1, err)
		}
		name := fmt.Sprintf("$sort%d", i)
		wide.Exprs[nv+i] = o.Expr
		wide.Cols[nv+i] = ColMeta{Table: "$order", Name: name, Kind: inferKind(o.Expr, preProj.Columns())}
		sortRefs[i] = sqlparse.ColumnRef{Table: "$order", Column: name}
		keys[i] = SortKey{Expr: &sortRefs[i], Desc: o.Desc}
	}
	sorted := sqlparse.New(b.arena, Sort{Input: wide, Keys: keys})
	narrow := sqlparse.New(b.arena, Project{Input: sorted, Exprs: sqlparse.Make[sqlparse.Expr](b.arena, nv), Cols: proj.Cols[:nv:nv]})
	refs := sqlparse.Make[sqlparse.ColumnRef](b.arena, nv)
	for i, c := range proj.Cols {
		refs[i] = sqlparse.ColumnRef{Column: c.Name}
		narrow.Exprs[i] = &refs[i]
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

	agg := NewAggregate(b.arena, input, sel.GroupBy, aggs)

	// Rewrite post-aggregation expressions: aggregate calls and group-by
	// expressions become references to the aggregate's output columns.
	rewrite := func(e sqlparse.Expr) (sqlparse.Expr, error) {
		out := b.rewriteAgg(e, sel.GroupBy)
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
	having := b.rewriteAgg(sel.Having, sel.GroupBy)
	// ORDER BY keys are resolved later, against the projection or the
	// aggregate output.
	var orderBy []sqlparse.OrderItem
	if len(sel.OrderBy) > 0 {
		orderBy = make([]sqlparse.OrderItem, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			orderBy[i] = sqlparse.OrderItem{Expr: b.rewriteAgg(o.Expr, sel.GroupBy), Desc: o.Desc}
		}
	}
	return agg, newItems, having, orderBy, nil
}

// rewriteAgg replaces aggregate calls and group-by-equal subexpressions
// with column references named by their rendered SQL, matching the output
// columns NewAggregate produces. It works top-down: a node that matches is
// replaced whole, and any other descends through MapChildren.
func (b *builder) rewriteAgg(e sqlparse.Expr, groupBy []sqlparse.Expr) sqlparse.Expr {
	if e == nil {
		return nil
	}
	for _, g := range groupBy {
		if e.SQL() == g.SQL() {
			return sqlparse.New(b.arena, sqlparse.ColumnRef{Column: g.SQL()})
		}
	}
	if f, ok := e.(*sqlparse.FuncExpr); ok && f.IsAggregate() {
		return sqlparse.New(b.arena, sqlparse.ColumnRef{Column: f.SQL()})
	}
	out, _ := sqlparse.MapChildren(b.arena, e, func(c sqlparse.Expr) (sqlparse.Expr, error) {
		return b.rewriteAgg(c, groupBy), nil
	})
	return out
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
			return b.renameOutputs(sub, alias), nil
		}
		if alias == "" {
			alias = t.Name
		}
		cols := sqlparse.Make[ColMeta](b.arena, res.Table.Arity())
		for i, c := range res.Table.Columns {
			cols[i] = ColMeta{Table: alias, Name: c.Name, Kind: c.Kind}
		}
		return sqlparse.New(b.arena, Scan{Source: res.Source, Table: res.Table.Name, Alias: alias, Cols: cols}), nil
	case *sqlparse.Join:
		left, err := b.buildTableRef(t.Left, depth)
		if err != nil {
			return nil, err
		}
		right, err := b.buildTableRef(t.Right, depth)
		if err != nil {
			return nil, err
		}
		j := NewJoin(b.arena, t.Type, left, right, t.On)
		if err := b.checkRefs(t.On, j.Columns()); err != nil {
			return nil, err
		}
		return j, nil
	case *sqlparse.SubqueryTable:
		sub, err := b.buildSelect(t.Query, depth+1)
		if err != nil {
			return nil, err
		}
		return b.renameOutputs(sub, t.Alias), nil
	default:
		return nil, fmt.Errorf("plan: unsupported table reference %T", tr)
	}
}

// renameOutputs wraps a node in a projection that re-qualifies its output
// columns under the given binding name, and renames them in order when
// names are given. Every view use pays this once per output column, so
// the slices are sized up front and the references are carved from one
// block.
func (b *builder) renameOutputs(n Node, alias string, names ...string) Node {
	in := n.Columns()
	p := sqlparse.New(b.arena, Project{Input: n, Exprs: sqlparse.Make[sqlparse.Expr](b.arena, len(in)), Cols: sqlparse.Make[ColMeta](b.arena, len(in))})
	refs := sqlparse.Make[sqlparse.ColumnRef](b.arena, len(in))
	for i, c := range in {
		refs[i] = sqlparse.ColumnRef{Table: c.Table, Column: c.Name}
		p.Exprs[i] = &refs[i]
		p.Cols[i] = ColMeta{Table: alias, Name: c.Name, Kind: c.Kind}
		if names != nil {
			p.Cols[i].Name = names[i]
		}
	}
	return p
}

// expandStars replaces * and alias.* with explicit column references. A
// select list without a star comes back itself.
func (b *builder) expandStars(items []sqlparse.SelectItem, cols []ColMeta) ([]sqlparse.SelectItem, error) {
	stars := 0
	for _, it := range items {
		if it.Star {
			stars++
		}
	}
	if stars == 0 {
		return items, nil
	}
	out := make([]sqlparse.SelectItem, 0, len(items)-stars+stars*len(cols))
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
			ref := sqlparse.New(b.arena, sqlparse.ColumnRef{Table: c.Table, Column: c.Name})
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

// filter plans cond, a WHERE or HAVING condition, over in. Subqueries in
// cond are joined onto in first (see joinSubqueries); then every column
// reference must resolve. Without a subquery, cond takes checkRefs' walk.
func (b *builder) filter(in Node, cond sqlparse.Expr, depth int) (Node, error) {
	_, grouped := in.(*Aggregate)
	bad := unresolved(cond, in.Columns())
	if sqlparse.SubqueryOf(bad) != nil {
		var err error
		if in, cond, err = b.joinSubqueries(in, cond, depth); err != nil || cond == nil {
			return in, err
		}
		bad = unresolved(cond, in.Columns())
	}
	if bad != nil {
		err := refError(bad, in.Columns())
		if grouped {
			err = fmt.Errorf("plan: expression %q must appear in GROUP BY or be aggregated: %w", bad.SQL(), err)
		}
		return nil, err
	}
	return sqlparse.New(b.arena, Filter{Input: in, Cond: cond}), nil
}

// joinSubqueries joins each subquery of cond onto in, and returns cond
// over the joined columns (nil if nothing is left). A conjunct x IN
// (SELECT ...) inner-joins the subquery's DISTINCT keys on x = key and
// leaves cond, so the semi-join tiers may reduce the outer fetch by them.
// A subquery resolves names in its own FROM alone: a correlated one fails
// to plan, naming the outer column.
func (b *builder) joinSubqueries(in Node, cond sqlparse.Expr, depth int) (Node, sqlparse.Expr, error) {
	var err error
	conjuncts := sqlparse.SplitConjuncts(cond)
	rest := conjuncts[:0]
	for _, c := range conjuncts {
		if s, ok := c.(*sqlparse.InSubquery); ok && !s.Not && unresolved(s.Child, in.Columns()) == nil {
			if in, _, err = b.joinIn(in, s, true, depth); err != nil {
				return nil, nil, err
			}
			continue
		}
		rest = append(rest, c)
	}
	cond, err = sqlparse.RewriteIn(b.arena, sqlparse.CombineConjunctsIn(b.arena, rest), func(x sqlparse.Expr) (sqlparse.Expr, error) {
		var err error
		if s, ok := x.(*sqlparse.InSubquery); ok {
			in, x, err = b.joinIn(in, s, false, depth)
		} else if s, ok := x.(*sqlparse.ExistsExpr); ok {
			in, x, err = b.joinExists(in, s, depth)
		}
		return x, err
	})
	return in, cond, err
}

// joinIn joins x [NOT] IN (SELECT ...) onto in: the subquery's DISTINCT
// keys as $k, inner-joined on x = $k when semi is set, else left-joined
// with one row of $n = COUNT(*) and $nn = COUNT(key) over the subquery
// cross-joined. Then x IN S is TRUE on a match, FALSE when S is empty or
// neither x nor a key is NULL, else NULL; NOT IN swaps TRUE and FALSE.
func (b *builder) joinIn(in Node, s *sqlparse.InSubquery, semi bool, depth int) (Node, sqlparse.Expr, error) {
	alias, err := b.alias()
	if err != nil {
		return nil, nil, err
	}
	sub, err := b.buildSelect(s.Query, depth+1)
	if err != nil {
		return nil, nil, err
	}
	if len(sub.Columns()) != 1 {
		return nil, nil, fmt.Errorf("plan: IN subquery must return one column, got %d", len(sub.Columns()))
	}
	keys := sqlparse.New(b.arena, Distinct{Input: b.renameOutputs(sub, alias, "$k")})
	k := b.ref(alias, "$k")
	if semi {
		return NewJoin(b.arena, sqlparse.JoinInner, in, keys, b.binary(sqlparse.OpEq, s.Child, k)), nil, nil
	}
	if sub, err = b.buildSelect(s.Query, depth+1); err != nil {
		return nil, nil, err
	}
	c := sub.Columns()[0]
	counts := NewAggregate(b.arena, sub, nil, []AggSpec{{Func: "COUNT", Star: true}, {Func: "COUNT", Arg: b.ref(c.Table, c.Name)}})
	in = NewJoin(b.arena, sqlparse.JoinLeft, in, keys, b.binary(sqlparse.OpEq, s.Child, k))
	in = NewJoin(b.arena, sqlparse.JoinInner, in, b.renameOutputs(counts, alias, "$n", "$nn"), nil)
	n, nn := b.ref(alias, "$n"), b.ref(alias, "$nn")
	settled := b.binary(sqlparse.OpOr, b.binary(sqlparse.OpEq, n, sqlparse.New(b.arena, sqlparse.Literal{Value: datum.NewInt(0)})),
		b.binary(sqlparse.OpAnd, sqlparse.New(b.arena, sqlparse.IsNullExpr{Child: s.Child, Not: true}), b.binary(sqlparse.OpEq, nn, n)))
	whens := sqlparse.Make[sqlparse.CaseWhen](b.arena, 2)
	whens[0] = sqlparse.CaseWhen{Cond: sqlparse.New(b.arena, sqlparse.IsNullExpr{Child: k, Not: true}), Result: sqlparse.New(b.arena, sqlparse.Literal{Value: datum.NewBool(!s.Not)})}
	whens[1] = sqlparse.CaseWhen{Cond: settled, Result: sqlparse.New(b.arena, sqlparse.Literal{Value: datum.NewBool(s.Not)})}
	return in, sqlparse.New(b.arena, sqlparse.CaseExpr{Whens: whens}), nil
}

// joinExists cross-joins one row of $n = COUNT(*) over the subquery's
// first row onto in, and returns $n > 0.
func (b *builder) joinExists(in Node, s *sqlparse.ExistsExpr, depth int) (Node, sqlparse.Expr, error) {
	alias, err := b.alias()
	if err != nil {
		return nil, nil, err
	}
	sub, err := b.buildSelect(s.Query, depth+1)
	if err != nil {
		return nil, nil, err
	}
	count := NewAggregate(b.arena, sqlparse.New(b.arena, Limit{Input: sub, Count: 1}), nil, []AggSpec{{Func: "COUNT", Star: true}})
	in = NewJoin(b.arena, sqlparse.JoinInner, in, b.renameOutputs(count, alias, "$n"), nil)
	return in, b.binary(sqlparse.OpGt, b.ref(alias, "$n"), sqlparse.New(b.arena, sqlparse.Literal{Value: datum.NewInt(0)})), nil
}

// alias counts one more subquery join and names the columns it adds.
func (b *builder) alias() (string, error) {
	if b.subqueries++; b.subqueries > maxSubqueries {
		return "", fmt.Errorf("plan: a statement may join at most %d subqueries", maxSubqueries)
	}
	return "$sq" + strconv.Itoa(b.subqueries), nil
}

func (b *builder) ref(table, column string) *sqlparse.ColumnRef {
	return sqlparse.New(b.arena, sqlparse.ColumnRef{Table: table, Column: column})
}

func (b *builder) binary(op sqlparse.BinOp, l, r sqlparse.Expr) sqlparse.Expr {
	return sqlparse.New(b.arena, sqlparse.BinaryExpr{Op: op, Left: l, Right: r})
}

// checkRefs validates that every column reference in e resolves against
// cols. A subquery is an error here: only filter plans one.
func (b *builder) checkRefs(e sqlparse.Expr, cols []ColMeta) error {
	return refError(unresolved(e, cols), cols)
}

// refError is the error for the node unresolved found (nil for none).
func refError(bad sqlparse.Expr, cols []ColMeta) error {
	switch r := bad.(type) {
	case nil:
		return nil
	case *sqlparse.ColumnRef:
		_, err := ResolveColumn(cols, r)
		return err
	case *sqlparse.ExistsExpr, *sqlparse.InSubquery:
		return fmt.Errorf("plan: subqueries are supported only in WHERE and HAVING")
	default:
		return fmt.Errorf("plan: checkRefs missing case for %T", r)
	}
}

// unresolved returns the first node of e, pre-order, that checkRefs
// rejects — a column reference missing from cols or ambiguous in it, or a
// subquery — and nil when there is none. Finding it allocates nothing, so
// a caller that only asks whether e resolves builds no error.
func unresolved(e sqlparse.Expr, cols []ColMeta) sqlparse.Expr {
	var bad sqlparse.Expr
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if bad != nil {
			return
		}
		switch r := x.(type) {
		case *sqlparse.ColumnRef:
			if _, ok := FindColumn(cols, r); !ok {
				bad = x
			}
		case *sqlparse.ExistsExpr, *sqlparse.InSubquery:
			bad = x
		case *sqlparse.Literal, *sqlparse.Param, *sqlparse.BinaryExpr,
			*sqlparse.UnaryExpr, *sqlparse.IsNullExpr, *sqlparse.InExpr,
			*sqlparse.BetweenExpr, *sqlparse.FuncExpr, *sqlparse.CaseExpr,
			*sqlparse.CastExpr, *sqlparse.KeyFilterExpr:
			// No node-local reference to validate; WalkExprs visits
			// their children on its own.
		default:
			bad = x
		}
	})
	return bad
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
	case *sqlparse.IsNullExpr, *sqlparse.InExpr, *sqlparse.BetweenExpr, *sqlparse.KeyFilterExpr:
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
	default:
		panic(fmt.Sprintf("plan: inferKind missing case for %T", e))
	}
}

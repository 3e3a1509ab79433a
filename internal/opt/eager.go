package opt

import (
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// eagerAggregate pushes grouping below joins — Yan & Larson's eager
// group-by (VLDB 1995) — so a source that can aggregate ships one partial
// row per group instead of its raw rows: §3's "local reduction", priced
// in the plan as Békés & Szeredi price source-side evaluation.
//
// It rewrites a grouped Aggregate whose input is a tree of inner joins,
// seen through at most one Project (a view's), when every aggregate is
// COUNT, SUM, MIN or MAX without DISTINCT and every argument comes from
// one input of the tree: a Filter/Project chain over one scan of a source
// with PushAggregate. That input is grouped on its columns the join
// conditions and the grouping read, the partial states recombine above
// the join — SUM of counts and sums, MIN of minimums, MAX of maximums —
// and a Project names the result exactly as the original Aggregate, kinds
// included, so nothing above it changes. Only one input is pre-aggregated,
// so the other inputs' duplicates replicate its partial rows through the
// join just as they replicated its raw rows, and no multiplicity factor is
// needed. Grand aggregates, AVG, DISTINCT and COUNT(*)-only aggregates,
// outer joins and inputs that already went through placement keep their
// plan.
//
// The rewrite fires only where est prices the partial result's bytes
// below the raw input's. Over a plan with no aggregate above a join it
// allocates nothing: every plan-cache miss runs it.
func eagerAggregate(n plan.Node, env Env, est *estimator) plan.Node {
	out := plan.Transform(n, func(x plan.Node) plan.Node {
		if a, ok := x.(*plan.Aggregate); ok {
			if eager := eagerOver(a, env, est); eager != nil {
				return eager
			}
		}
		return x
	})
	if out != n {
		// The naming Project meets the Project the select list left
		// above the Aggregate.
		out = mergeProjects(out)
	}
	return out
}

// combineFunc maps an aggregate to the one that merges its partial
// states; "" for aggregates that do not split.
func combineFunc(sp plan.AggSpec) string {
	if sp.Distinct {
		return ""
	}
	switch sp.Func {
	case "COUNT", "SUM":
		return "SUM"
	case "MIN", "MAX":
		return sp.Func
	}
	return ""
}

// eagerOver returns the eager form of a, or nil when a does not qualify or
// the partial aggregate would not ship fewer bytes.
func eagerOver(a *plan.Aggregate, env Env, est *estimator) plan.Node {
	if len(a.GroupBy) == 0 || env == nil {
		return nil
	}
	hasArg := false
	for _, sp := range a.Aggs {
		if combineFunc(sp) == "" {
			return nil
		}
		hasArg = hasArg || sp.Arg != nil
	}
	if !hasArg {
		return nil // COUNT(*) alone names no input to pre-aggregate
	}
	in := a.Input
	view, _ := in.(*plan.Project)
	if view != nil {
		in = view.Input
	}
	root, ok := in.(*plan.Join)
	if !ok || root.Type != sqlparse.JoinInner {
		return nil
	}

	// Grouping and arguments as expressions over the join's columns.
	groupBy, args := a.GroupBy, make([]sqlparse.Expr, len(a.Aggs))
	for i, sp := range a.Aggs {
		args[i] = sp.Arg
	}
	if view != nil {
		groupBy = make([]sqlparse.Expr, len(a.GroupBy))
		for i, g := range a.GroupBy {
			groupBy[i] = substitute(g, view.Cols, view.Exprs)
		}
		for i, arg := range args {
			args[i] = substitute(arg, view.Cols, view.Exprs)
		}
	}

	// The one input every argument comes from.
	rels, conds := flattenJoins(root)
	var side plan.Node
	for _, r := range rels {
		if allResolve(args, r.Columns()) {
			side = r
			break
		}
	}
	if side == nil || occurrences(rels, side) != 1 || !pushableChain(side, env) {
		return nil
	}

	// Group it on every column of it read above it: join conditions and
	// grouping. sideCols[k] is the side column the k-th key restores.
	cols := side.Columns()
	read := exprRefs(cols, append(conds, groupBy...)...)
	var keys []sqlparse.Expr
	var sideCols []plan.ColMeta
	for i, c := range cols {
		if !read[i] {
			continue
		}
		ref := &sqlparse.ColumnRef{Table: c.Table, Column: c.Name}
		if at, ok := plan.FindColumn(cols, ref); !ok || at != i {
			return nil
		}
		keys, sideCols = append(keys, ref), append(sideCols, c)
	}
	if len(keys) == 0 {
		// Ungrouped, the partial would answer one row even for an empty
		// input, and a cross join would pair it with every other row.
		return nil
	}
	partialAggs := make([]plan.AggSpec, len(a.Aggs))
	for i, sp := range a.Aggs {
		partialAggs[i] = plan.AggSpec{Func: sp.Func, Arg: args[i], Star: sp.Star}
	}
	partial := plan.NewAggregate(side, keys, partialAggs)

	// Rename the keys back to the side's columns, so the join conditions
	// and the grouping resolve as before; partial states keep their names.
	pcols := partial.Columns()
	named := &plan.Project{Input: partial, Exprs: make([]sqlparse.Expr, len(pcols)), Cols: make([]plan.ColMeta, len(pcols))}
	for i, c := range pcols {
		named.Exprs[i] = &sqlparse.ColumnRef{Column: c.Name}
		named.Cols[i] = c
		if i < len(sideCols) {
			named.Cols[i] = sideCols[i]
		}
	}
	if est.Rows(named)*est.RowWidth(named) >= est.Rows(side)*est.RowWidth(side) {
		return nil
	}

	joined := replaceRel(root, side, named)
	jcols := joined.Columns()
	combineAggs := make([]plan.AggSpec, len(a.Aggs))
	for i, sp := range a.Aggs {
		ref := &sqlparse.ColumnRef{Column: pcols[len(keys)+i].Name}
		if _, ok := plan.FindColumn(jcols, ref); !ok {
			return nil // two partial states, or a state and a column, share a name
		}
		combineAggs[i] = plan.AggSpec{Func: combineFunc(sp), Arg: ref}
	}
	if !allResolve(groupBy, jcols) {
		return nil
	}
	combine := plan.NewAggregate(joined, groupBy, combineAggs)

	// Name the combined columns exactly as a's.
	ccols := combine.Columns()
	out := &plan.Project{Input: combine, Exprs: make([]sqlparse.Expr, len(ccols)), Cols: a.Columns()}
	for i, c := range ccols {
		ref := &sqlparse.ColumnRef{Column: c.Name}
		if at, ok := plan.FindColumn(ccols, ref); !ok || at != i {
			return nil
		}
		out.Exprs[i] = ref
	}
	return out
}

// allResolve reports whether every expression's references resolve
// against cols (nil entries, COUNT(*)'s argument, trivially do).
func allResolve(exprs []sqlparse.Expr, cols []plan.ColMeta) bool {
	for _, e := range exprs {
		if e != nil && !plan.RefsResolve(e, cols) {
			return false
		}
	}
	return true
}

// occurrences counts how often n appears in rels: a subtree shared by two
// places in the join would be pre-aggregated under both.
func occurrences(rels []plan.Node, n plan.Node) int {
	c := 0
	for _, r := range rels {
		if r == n {
			c++
		}
	}
	return c
}

// pushableChain reports whether n is a Filter/Project chain over one scan
// of a source that can evaluate it with an aggregate and a Project on top.
// An input that holds a Remote or an Aggregate — a plan optimized before,
// or a partial aggregate already — is not one, so the rewrite never
// stacks.
func pushableChain(n plan.Node, env Env) bool {
	var buf [8]plan.Node
	chain := buf[:0]
	for {
		chain = append(chain, n)
		if f, ok := n.(*plan.Filter); ok {
			n = f.Input
		} else if p, ok := n.(*plan.Project); ok {
			n = p.Input
		} else {
			break
		}
	}
	s, ok := n.(*plan.Scan)
	if !ok || s.Source == "" {
		return false
	}
	caps := env.Caps(s.Source)
	if !caps.PushAggregate || !caps.PushProject {
		return false
	}
	for _, c := range chain {
		if !caps.Allows(c) {
			return false
		}
	}
	return true
}

// replaceRel returns the inner-join tree root with rel replaced by with.
func replaceRel(root, rel, with plan.Node) plan.Node {
	if root == rel {
		return with
	}
	if j, ok := root.(*plan.Join); ok && j.Type == sqlparse.JoinInner {
		return plan.MapInputs(root, func(in plan.Node) plan.Node { return replaceRel(in, rel, with) })
	}
	return root
}

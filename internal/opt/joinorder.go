package opt

import (
	"math"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// maxDPRelations caps the exhaustive left-deep DP; larger join graphs fall
// back to the greedy heuristic.
const maxDPRelations = 10

// reorderJoins finds maximal trees of inner joins and reorders each using
// cost-based search under est, building candidates from a. LEFT joins act
// as barriers. A join whose best order is the one it has comes back
// itself.
func reorderJoins(a *sqlparse.Arena, n plan.Node, est *estimator) plan.Node {
	return plan.Transform(a, n, func(x plan.Node) plan.Node {
		j, ok := x.(*plan.Join)
		if !ok || j.Type != sqlparse.JoinInner {
			return x
		}
		// Only reorder at the top of an inner-join chain: if the
		// parent transform sees this node again as a child of another
		// inner join it will be flattened there. Detect chains lazily:
		// collect relations; if fewer than 3, ordering cannot change
		// anything worth the work (2 relations: build-side choice is
		// still useful, so handle >= 2).
		var relBuf [8]plan.Node
		var conjBuf [8]sqlparse.Expr
		rels, conjuncts := flattenJoins(j, relBuf[:0], conjBuf[:0])
		if len(rels) < 2 {
			return x
		}
		var out plan.Node
		if len(rels) > maxDPRelations {
			out = greedyOrder(a, rels, conjuncts, est)
		} else {
			out = dpOrder(a, rels, conjuncts, est)
		}
		if o, ok := out.(*plan.Join); ok && o.Left == j.Left && o.Right == j.Right && o.Cond == j.Cond &&
			j.SemiJoin == plan.SemiJoinNone && j.Parallel == 0 {
			return x
		}
		return out
	})
}

// flattenJoins appends the leaf relations and conjunct pool of a maximal
// inner-join tree to rels and conj.
func flattenJoins(n plan.Node, rels []plan.Node, conj []sqlparse.Expr) ([]plan.Node, []sqlparse.Expr) {
	j, ok := n.(*plan.Join)
	if !ok || j.Type != sqlparse.JoinInner {
		return append(rels, n), conj
	}
	rels, conj = flattenJoins(j.Left, rels, conj)
	rels, conj = flattenJoins(j.Right, rels, conj)
	return rels, sqlparse.AppendConjuncts(conj, j.Cond)
}

// resolvesAcross reports whether every column reference in e resolves
// against a and b together, as plan.RefsResolve does against their
// concatenation, without building it: each reference must match exactly
// one column of the two lists. b may be nil.
func resolvesAcross(e sqlparse.Expr, a, b []plan.ColMeta) bool {
	ok := true
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if ref, is := x.(*sqlparse.ColumnRef); is && ok {
			ia, inA := plan.FindColumn(a, ref)
			ib, inB := plan.FindColumn(b, ref)
			ok = inA && ib < 0 || ia < 0 && inB
		}
	})
	return ok
}

// applicable splits conjuncts into those fully resolvable against a and b
// together (now) and the rest (later), each in pool order, the halves
// from ar. A half that holds every conjunct is conjuncts itself, so a split
// that leaves the pool whole allocates nothing.
func applicable(ar *sqlparse.Arena, conjuncts []sqlparse.Expr, a, b []plan.ColMeta) (now, later []sqlparse.Expr) {
	n := 0
	for _, c := range conjuncts {
		if resolvesAcross(c, a, b) {
			n++
		}
	}
	switch n {
	case 0:
		return nil, conjuncts
	case len(conjuncts):
		return conjuncts, nil
	}
	now, later = sqlparse.Make[sqlparse.Expr](ar, n)[:0], sqlparse.Make[sqlparse.Expr](ar, len(conjuncts)-n)[:0]
	for _, c := range conjuncts {
		if resolvesAcross(c, a, b) {
			now = append(now, c)
		} else {
			later = append(later, c)
		}
	}
	return now, later
}

// connects reports whether any conjunct references both column sets.
func connects(conjuncts []sqlparse.Expr, a, b []plan.ColMeta) bool {
	for _, c := range conjuncts {
		if resolvesAcross(c, a, b) && !plan.RefsResolve(c, a) && !plan.RefsResolve(c, b) {
			return true
		}
	}
	return false
}

// joinPair builds an inner join of two subplans, attaching every conjunct
// that becomes applicable. Single-side conjuncts were already pushed down
// by pushFilters, but a straggler is still legal as part of the join
// condition. Both come from a.
func joinPair(a *sqlparse.Arena, left, right plan.Node, pool []sqlparse.Expr) (plan.Node, []sqlparse.Expr) {
	now, later := applicable(a, pool, left.Columns(), right.Columns())
	return plan.NewJoin(a, sqlparse.JoinInner, left, right, sqlparse.CombineConjunctsIn(a, now)), later
}

// dpOrder runs left-deep dynamic programming over relation subsets,
// minimizing cumulative intermediate cardinality (the C_out cost metric).
// Every candidate comes from a.
func dpOrder(a *sqlparse.Arena, rels []plan.Node, conjuncts []sqlparse.Expr, est *estimator) plan.Node {
	n := len(rels)
	type entry struct {
		node plan.Node       // nil until some plan joins the subset
		pool []sqlparse.Expr // conjuncts not yet applied
		cost float64
	}
	// dp[set] is the cheapest plan found for the relations in set; up to
	// four relations it stays on the stack.
	var buf [16]entry
	dp := buf[:]
	if 1<<n > len(buf) {
		dp = make([]entry, 1<<n)
	}
	dp = dp[:1<<n]
	for i, r := range rels {
		// Apply any single-relation conjuncts immediately.
		now, later := applicable(a, conjuncts, r.Columns(), nil)
		node := r
		if len(now) > 0 {
			node = sqlparse.New(a, plan.Filter{Input: r, Cond: sqlparse.CombineConjunctsIn(a, now)})
		}
		dp[1<<i] = entry{node: node, pool: later, cost: est.Rows(node)}
	}
	full := len(dp) - 1
	for set := 1; set < full; set++ {
		cur := dp[set]
		if cur.node == nil {
			continue
		}
		for i := 0; i < n; i++ {
			bit := 1 << i
			if set&bit != 0 {
				continue
			}
			base := dp[bit]
			// Penalize cross joins so connected orders win.
			penalty := 1.0
			if !connects(cur.pool, cur.node.Columns(), base.node.Columns()) {
				penalty = 100
			}
			joined, rest := joinPair(a, cur.node, base.node, cur.pool)
			rows := est.Rows(joined)
			// The 1.01 factor on the extension relation breaks
			// C_out ties in favour of small build (right) sides,
			// matching the executor's build-on-right hash join.
			cost := cur.cost + est.Rows(base.node)*1.01 + rows*penalty
			if next := &dp[set|bit]; next.node == nil || cost < next.cost {
				*next = entry{node: joined, pool: rest, cost: cost}
			}
		}
	}
	// Every subset extends by every relation it lacks, so the full set
	// always has a plan.
	best := dp[full]
	if len(best.pool) > 0 {
		return sqlparse.New(a, plan.Filter{Input: best.node, Cond: sqlparse.CombineConjunctsIn(a, best.pool)})
	}
	return best.node
}

// greedyOrder starts from the smallest relation and repeatedly joins the
// cheapest connected candidate, every candidate from a.
func greedyOrder(a *sqlparse.Arena, rels []plan.Node, conjuncts []sqlparse.Expr, est *estimator) plan.Node {
	remaining := append([]plan.Node{}, rels...)
	pool := conjuncts
	// Seed: smallest relation.
	bestIdx := 0
	bestRows := math.Inf(1)
	for i, r := range remaining {
		if rows := est.Rows(r); rows < bestRows {
			bestRows, bestIdx = rows, i
		}
	}
	cur := remaining[bestIdx]
	remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	if now, later := applicable(a, pool, cur.Columns(), nil); len(now) > 0 {
		cur = sqlparse.New(a, plan.Filter{Input: cur, Cond: sqlparse.CombineConjunctsIn(a, now)})
		pool = later
	}
	for len(remaining) > 0 {
		bestIdx = -1
		bestCost := math.Inf(1)
		var bestJoin plan.Node
		var bestPool []sqlparse.Expr
		for i, r := range remaining {
			penalty := 1.0
			if !connects(pool, cur.Columns(), r.Columns()) {
				penalty = 100
			}
			joined, rest := joinPair(a, cur, r, pool)
			cost := est.Rows(joined) * penalty
			if cost < bestCost {
				bestCost, bestIdx = cost, i
				bestJoin, bestPool = joined, rest
			}
		}
		cur = bestJoin
		pool = bestPool
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	if len(pool) > 0 {
		cur = sqlparse.New(a, plan.Filter{Input: cur, Cond: sqlparse.CombineConjunctsIn(a, pool)})
	}
	return cur
}

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
// cost-based search under est. LEFT joins act as barriers.
func reorderJoins(n plan.Node, est *estimator) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
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
		rels, conjuncts := flattenJoins(j)
		if len(rels) < 2 {
			return x
		}
		if len(rels) > maxDPRelations {
			return greedyOrder(rels, conjuncts, est)
		}
		return dpOrder(rels, conjuncts, est)
	})
}

// flattenJoins collects the leaf relations and conjunct pool of a maximal
// inner-join tree.
func flattenJoins(n plan.Node) ([]plan.Node, []sqlparse.Expr) {
	j, ok := n.(*plan.Join)
	if !ok || j.Type != sqlparse.JoinInner {
		return []plan.Node{n}, nil
	}
	lRels, lConj := flattenJoins(j.Left)
	rRels, rConj := flattenJoins(j.Right)
	rels := append(lRels, rRels...)
	conj := append(lConj, rConj...)
	conj = append(conj, sqlparse.SplitConjuncts(j.Cond)...)
	return rels, conj
}

// applicable returns the conjuncts fully resolvable against cols, split
// from the rest.
func applicable(conjuncts []sqlparse.Expr, cols []plan.ColMeta) (now, later []sqlparse.Expr) {
	for _, c := range conjuncts {
		if plan.RefsResolve(c, cols) {
			now = append(now, c)
		} else {
			later = append(later, c)
		}
	}
	return now, later
}

// connects reports whether any conjunct references both column sets.
func connects(conjuncts []sqlparse.Expr, a, b []plan.ColMeta) bool {
	joined := append(append([]plan.ColMeta{}, a...), b...)
	for _, c := range conjuncts {
		if plan.RefsResolve(c, joined) && !plan.RefsResolve(c, a) && !plan.RefsResolve(c, b) {
			return true
		}
	}
	return false
}

// joinPair builds an inner join of two subplans, attaching every conjunct
// that becomes applicable.
func joinPair(left, right plan.Node, pool []sqlparse.Expr) (plan.Node, []sqlparse.Expr) {
	joined := append(append([]plan.ColMeta{}, left.Columns()...), right.Columns()...)
	var now []sqlparse.Expr
	var later []sqlparse.Expr
	for _, c := range pool {
		// Only attach conjuncts that need both sides; single-side
		// conjuncts were already pushed down by pushFilters, but a
		// straggler is still legal as part of the join condition.
		if plan.RefsResolve(c, joined) {
			now = append(now, c)
		} else {
			later = append(later, c)
		}
	}
	return plan.NewJoin(sqlparse.JoinInner, left, right, sqlparse.CombineConjuncts(now)), later
}

// dpOrder runs left-deep dynamic programming over relation subsets,
// minimizing cumulative intermediate cardinality (the C_out cost metric).
func dpOrder(rels []plan.Node, conjuncts []sqlparse.Expr, est *estimator) plan.Node {
	n := len(rels)
	type entry struct {
		node plan.Node
		pool []sqlparse.Expr // conjuncts not yet applied
		cost float64
	}
	dp := make(map[uint32]*entry, 1<<n)
	for i, r := range rels {
		// Apply any single-relation conjuncts immediately.
		now, later := applicable(conjuncts, r.Columns())
		node := r
		if len(now) > 0 {
			node = &plan.Filter{Input: r, Cond: sqlparse.CombineConjuncts(now)}
		}
		dp[1<<i] = &entry{node: node, pool: later, cost: est.Rows(node)}
	}
	full := uint32(1<<n) - 1
	for set := uint32(1); set <= full; set++ {
		cur, ok := dp[set]
		if !ok || bitCount(set) == n {
			continue
		}
		for i := 0; i < n; i++ {
			bit := uint32(1) << i
			if set&bit != 0 {
				continue
			}
			base := dp[bit]
			// Penalize cross joins so connected orders win.
			penalty := 1.0
			if !connects(cur.pool, cur.node.Columns(), base.node.Columns()) {
				penalty = 100
			}
			joined, rest := joinPair(cur.node, base.node, cur.pool)
			rows := est.Rows(joined)
			// The 1.01 factor on the extension relation breaks
			// C_out ties in favour of small build (right) sides,
			// matching the executor's build-on-right hash join.
			cost := cur.cost + est.Rows(base.node)*1.01 + rows*penalty
			next := set | bit
			if prev, ok := dp[next]; !ok || cost < prev.cost {
				dp[next] = &entry{node: joined, pool: rest, cost: cost}
			}
		}
	}
	best := dp[full]
	if best == nil {
		// Unreachable, but fall back to the original order.
		return fallbackOrder(rels, conjuncts)
	}
	if len(best.pool) > 0 {
		return &plan.Filter{Input: best.node, Cond: sqlparse.CombineConjuncts(best.pool)}
	}
	return best.node
}

// greedyOrder starts from the smallest relation and repeatedly joins the
// cheapest connected candidate.
func greedyOrder(rels []plan.Node, conjuncts []sqlparse.Expr, est *estimator) plan.Node {
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
	if now, later := applicable(pool, cur.Columns()); len(now) > 0 {
		cur = &plan.Filter{Input: cur, Cond: sqlparse.CombineConjuncts(now)}
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
			joined, rest := joinPair(cur, r, pool)
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
		cur = &plan.Filter{Input: cur, Cond: sqlparse.CombineConjuncts(pool)}
	}
	return cur
}

// fallbackOrder reproduces the original left-deep order.
func fallbackOrder(rels []plan.Node, conjuncts []sqlparse.Expr) plan.Node {
	cur := rels[0]
	pool := conjuncts
	for _, r := range rels[1:] {
		cur, pool = joinPair(cur, r, pool)
	}
	if len(pool) > 0 {
		cur = &plan.Filter{Input: cur, Cond: sqlparse.CombineConjuncts(pool)}
	}
	return cur
}

func bitCount(v uint32) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

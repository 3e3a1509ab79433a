package opt

import (
	"fmt"

	"repro/internal/plan"
)

// rowsPerWorker is the estimated input cardinality each morsel worker
// should amortize: below it, fan-out overhead (goroutines, channels,
// batch copies) exceeds the work being split.
const rowsPerWorker = 2048

// maxHintDegree bounds the data-driven worker hint. Deliberately not
// GOMAXPROCS: the hint states how far the data can usefully be split,
// and the executor caps it by the host (or by an explicit
// QueryOptions.Parallelism, which may exceed the core count) at run
// time — so a cached plan carries the same hints on every host.
const maxHintDegree = 16

// annotateParallelism writes worker-count hints into the mediator-side
// operators of an optimized plan, derived from estimated cardinalities:
// degree = estimated input rows / rowsPerWorker, capped at
// maxHintDegree. Remote subtrees execute inside source wrappers (which
// run with a zero-value exec.Options) and are left unannotated —
// intra-query parallelism belongs to the assembly site, inter-source
// parallelism to the prefetching Remote boundary. Hints depend only on
// catalog statistics, never on per-query options, so cached plans stay
// valid for every requested parallelism.
func annotateParallelism(n plan.Node, env Env) plan.Node {
	est := newEstimator(env)
	maxDeg := maxHintDegree
	var visit func(plan.Node)
	visit = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Remote:
			return // wrapper-side subtree: stays sequential
		case *plan.Filter:
			x.Parallel = degreeFor(est.Rows(x.Input), maxDeg)
		case *plan.Project:
			x.Parallel = degreeFor(est.Rows(x.Input), maxDeg)
		case *plan.Join:
			x.Parallel = degreeFor(est.Rows(x.Left)+est.Rows(x.Right), maxDeg)
		case *plan.Aggregate:
			x.Parallel = degreeFor(est.Rows(x.Input), maxDeg)
		case *plan.Scan, *plan.Sort, *plan.Limit, *plan.Distinct, *plan.Union:
			// Not worth parallelizing (Scan is wrapper-bound; Sort,
			// Limit, Distinct and Union are order-sensitive assembly
			// steps); their inputs are still visited below.
		default:
			panic(fmt.Sprintf("opt: annotateParallelism missing case for %T", n))
		}
		for _, k := range n.Children() {
			visit(k)
		}
	}
	visit(n)
	return n
}

func degreeFor(rows float64, max int) int {
	d := int(rows / rowsPerWorker)
	if d < 1 {
		return 1
	}
	if d > max {
		return max
	}
	return d
}

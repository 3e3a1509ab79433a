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

// annotateParallelism sets worker-count hints on the mediator-side
// operators of an optimized plan, derived from estimated cardinalities:
// degree = estimated input rows / rowsPerWorker, capped at
// maxHintDegree. Remote subtrees execute inside source wrappers (which
// run with a zero-value exec.Options) and are left unannotated —
// intra-query parallelism belongs to the assembly site, inter-source
// parallelism to the prefetching Remote boundary. Hints depend only on
// catalog statistics, never on per-query options, so cached plans stay
// valid for every requested parallelism.
//
// The pass annotates by copy: earlier passes rebuild only what they
// change, so the tree it is given may share nodes with the logical plan
// or, for a fragment shipped from a peer, with that peer's cached
// template. It writes a hint only into a node MapInputs has just copied
// for it, and copies any other node whose hint changes. Estimates come
// from est.
func annotateParallelism(n plan.Node, est *estimator) plan.Node {
	var annotate func(plan.Node) plan.Node
	annotate = func(n plan.Node) plan.Node {
		// Degrees are estimated over the node as given, before its
		// inputs are annotated.
		deg := 0
		switch x := n.(type) {
		case *plan.Remote:
			return n // wrapper-side subtree: stays sequential
		case *plan.Filter:
			deg = degreeFor(est.Rows(x.Input), maxHintDegree)
		case *plan.Project:
			deg = degreeFor(est.Rows(x.Input), maxHintDegree)
		case *plan.Join:
			deg = degreeFor(est.Rows(x.Left)+est.Rows(x.Right), maxHintDegree)
		case *plan.Aggregate:
			deg = degreeFor(est.Rows(x.Input), maxHintDegree)
		case *plan.Scan, *plan.Sort, *plan.Limit, *plan.Distinct, *plan.Union:
			// Not worth parallelizing (Scan is wrapper-bound; Sort,
			// Limit, Distinct and Union are order-sensitive assembly
			// steps); their inputs are still annotated.
		default:
			panic(fmt.Sprintf("opt: annotateParallelism missing case for %T", n))
		}
		out := plan.MapInputs(n, annotate)
		if deg == 0 {
			return out
		}
		return withParallel(out, out != n, deg)
	}
	return annotate(n)
}

// withParallel returns n carrying worker hint deg: n itself when it
// already does, or when owned (this pass allocated it) with the hint set
// in place, else a copy.
func withParallel(n plan.Node, owned bool, deg int) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		if x.Parallel != deg {
			x = own(x, owned)
			x.Parallel = deg
		}
		return x
	case *plan.Project:
		if x.Parallel != deg {
			x = own(x, owned)
			x.Parallel = deg
		}
		return x
	case *plan.Join:
		if x.Parallel != deg {
			x = own(x, owned)
			x.Parallel = deg
		}
		return x
	case *plan.Aggregate:
		if x.Parallel != deg {
			x = own(x, owned)
			x.Parallel = deg
		}
		return x
	default:
		panic(fmt.Sprintf("opt: %T takes no parallelism hint", n))
	}
}

// own returns x when owned, else a shallow copy of it.
func own[T any](x *T, owned bool) *T {
	if owned {
		return x
	}
	c := *x
	return &c
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

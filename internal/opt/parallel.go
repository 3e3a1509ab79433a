package opt

import (
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/sqlparse"
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
// run with a zero-value exec.Options, the query scratch aside) and stay
// sequential — intra-query parallelism belongs to the assembly site,
// inter-source parallelism to the prefetching Remote boundary. Every
// Aggregate, on either side of a Remote boundary, also gets its estimated
// group count, which sizes its group table. Hints depend only on catalog
// statistics, never on per-query options, so cached plans stay valid for
// every requested parallelism.
//
// The pass annotates by copy: earlier passes rebuild only what they
// change, so the tree it is given may share nodes with the logical plan
// or, for a fragment shipped from a peer, with that peer's cached
// template. It writes a hint only into a node MapInputs has just copied
// for it, and copies any other node, from a, whose hint changes. A node
// below rowsPerWorker*2 estimated input rows is sequential, hint 0, as
// the builder leaves it, so a plan without a parallel operator comes back
// as it went in. Estimates come from est.
func annotateParallelism(a *sqlparse.Arena, n plan.Node, est *estimator) plan.Node {
	var annotate, annotateRemote func(plan.Node) plan.Node
	annotate = func(n plan.Node) plan.Node {
		// Degrees are estimated over the node as given, before its
		// inputs are annotated.
		deg := 0
		switch x := n.(type) {
		case *plan.Remote:
			return plan.MapInputs(a, n, annotateRemote)
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
			return plan.MapInputs(a, n, annotate)
		default:
			panic(fmt.Sprintf("opt: annotateParallelism missing case for %T", n))
		}
		groups := groupsOf(n, est)
		out := plan.MapInputs(a, n, annotate)
		out = withParallel(a, out, out != n, deg)
		if agg, ok := out.(*plan.Aggregate); ok {
			return withGroups(a, agg, out != n, groups)
		}
		return out
	}
	// Below a Remote boundary only group counts are annotated.
	annotateRemote = func(n plan.Node) plan.Node {
		groups := groupsOf(n, est)
		out := plan.MapInputs(a, n, annotateRemote)
		if agg, ok := out.(*plan.Aggregate); ok {
			return withGroups(a, agg, out != n, groups)
		}
		return out
	}
	return annotate(n)
}

// groupsOf is the group estimate an Aggregate is annotated with, taken
// over the node as given; 0 for any other node.
func groupsOf(n plan.Node, est *estimator) int {
	if _, ok := n.(*plan.Aggregate); !ok {
		return 0
	}
	return int(math.Ceil(est.Rows(n)))
}

// withGroups returns agg carrying group estimate g, copied from a unless
// owned.
func withGroups(a *sqlparse.Arena, agg *plan.Aggregate, owned bool, g int) *plan.Aggregate {
	if agg.Groups != g {
		agg = own(a, agg, owned)
		agg.Groups = g
	}
	return agg
}

// withParallel returns n carrying worker hint deg: n itself when it
// already does, or when owned (this pass allocated it) with the hint set
// in place, else a copy from a.
func withParallel(a *sqlparse.Arena, n plan.Node, owned bool, deg int) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		if x.Parallel != deg {
			x = own(a, x, owned)
			x.Parallel = deg
		}
		return x
	case *plan.Project:
		if x.Parallel != deg {
			x = own(a, x, owned)
			x.Parallel = deg
		}
		return x
	case *plan.Join:
		if x.Parallel != deg {
			x = own(a, x, owned)
			x.Parallel = deg
		}
		return x
	case *plan.Aggregate:
		if x.Parallel != deg {
			x = own(a, x, owned)
			x.Parallel = deg
		}
		return x
	default:
		panic(fmt.Sprintf("opt: %T takes no parallelism hint", n))
	}
}

// own returns x when owned, else a shallow copy of it from a.
func own[T any](a *sqlparse.Arena, x *T, owned bool) *T {
	if owned {
		return x
	}
	return sqlparse.New(a, *x)
}

// degreeFor is the worker hint for rows of input, at most max: 0, as
// the builder leaves a node, when they do not fill two workers.
func degreeFor(rows float64, max int) int {
	d := int(rows / rowsPerWorker)
	if d < 2 {
		return 0
	}
	if d > max {
		return max
	}
	return d
}

// Package opt implements the federated query optimizer: predicate
// pushdown, projection pruning, cost-based join reordering, and
// capability-aware placement of Remote subtrees at the sources. This is the
// layer §3 (Bitton) demands of a credible EII engine: "minimize the amount
// of data shipped for assembly by utilizing local reduction", and §5
// (Draper) credits with "a decisive impact on our performance on every
// comparison": modelling per-source capabilities finely enough to push
// predicates other systems would not.
package opt

import (
	"time"

	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/schema"
)

// Env gives the optimizer access to per-source metadata.
type Env interface {
	// Caps returns the capability set of a source.
	Caps(source string) federation.Caps
	// Link returns the network link to a source.
	Link(source string) *netsim.Link
	// Stats returns statistics for a source table; nil when unknown.
	Stats(source, table string) *schema.TableStats
}

// Options toggles individual optimizations, mainly for the ablation
// benchmarks (a naive plan with everything off reproduces the "pull
// everything to the mediator" strategy §3 criticizes).
type Options struct {
	NoFilterPushdown  bool
	NoProjectionPrune bool
	NoJoinReorder     bool
	NoRemotePushdown  bool // ship bare scans only; all operators run at the mediator
	NoSemiJoin        bool // never hint semi-join reductions
}

// Optimize rewrites a logical plan for federated execution.
func Optimize(root plan.Node, env Env, opts Options) plan.Node {
	n, _ := optimize(root, env, opts)
	return n
}

// OptimizeCosted is Optimize that also prices the optimized plan, with the
// estimator its passes consulted: the cost Cost would report, without
// deriving again the estimates the passes already made.
func OptimizeCosted(root plan.Node, env Env, opts Options) (plan.Node, PlanCost) {
	n, est := optimize(root, env, opts)
	return n, est.cost(n)
}

// optimize runs the passes under one estimator and returns it with the
// plan. Sharing the estimator's memo across passes is sound because no
// pass writes into a node it did not allocate: passes copy on change
// (plan.MapInputs), so one pointer denotes one subtree for the whole
// compile, and an estimate memoized for it in one pass still holds in the
// next.
func optimize(root plan.Node, env Env, opts Options) (plan.Node, *estimator) {
	est := newEstimator(env)
	n := root
	n = mergeProjects(n)
	if !opts.NoFilterPushdown {
		n = pushFilters(n)
		n = mergeProjects(n)
	}
	if !opts.NoJoinReorder {
		n = reorderJoins(n, est)
	}
	if !opts.NoProjectionPrune {
		n = pruneColumns(n)
		n = mergeProjects(n)
	}
	if !opts.NoRemotePushdown {
		n = eagerAggregate(n, env, est)
	}
	n = placeRemotes(n, env, opts)
	if !opts.NoRemotePushdown && !opts.NoSemiJoin {
		n = annotateSemiJoins(n, est)
	}
	n = annotateParallelism(n, est)
	return n, est
}

// Naive returns the plan a capability-blind mediator would run: every scan
// ships its whole table and all processing happens centrally. This is the
// baseline for the pushdown experiments.
func Naive(root plan.Node) plan.Node {
	return plan.Transform(root, func(n plan.Node) plan.Node {
		if s, ok := n.(*plan.Scan); ok {
			return &plan.Remote{Source: s.Source, Child: s}
		}
		return n
	})
}

// PlanCost estimates the total cost of an optimized plan: mediator CPU plus
// the network time of every Remote boundary. It is the single currency the
// EII-vs-warehouse experiments compare in.
type PlanCost struct {
	Rows    int64         // estimated result rows
	Shipped int64         // estimated bytes crossing source links
	Network time.Duration // estimated time on links
	CPURows int64         // rows processed at the mediator
}

// Cost estimates the execution cost of a plan under the environment.
func Cost(n plan.Node, env Env) PlanCost {
	est := newEstimator(env)
	return est.cost(n)
}

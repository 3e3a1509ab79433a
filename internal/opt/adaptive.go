package opt

// Adaptive planning hooks: optional environment interfaces that feed
// runtime observations (cardinality feedback, per-source latency
// calibration, breaker half-open bias) into the cost model, and
// Reoptimize — the mid-query re-planning entry point that revises an
// already-placed plan against updated estimates.

import (
	"sync"

	"repro/internal/feedback"
	"repro/internal/plan"
)

// FeedbackEnv is optionally implemented by planning environments that
// carry a runtime-cardinality feedback store. When present, the estimator
// blends observed estimates with static catalog statistics,
// confidence-weighted (see estimator.blend).
type FeedbackEnv interface {
	// Observed returns the feedback estimate for a shape, if one exists
	// with usable confidence. The shape is borrowed for the call.
	Observed(k feedback.Shape) (feedback.Estimate, bool)
}

// LatencyEnv is optionally implemented by planning environments that
// track how sources actually perform against the link model: observed
// fetch latency and circuit-breaker half-open state. NetworkFactor > 1
// makes a source's modelled transfer time look slower (recently slow, or
// half-open and unproven), biasing placement and semi-join decisions away
// from it — a graded signal where E12's availability mask is binary.
type LatencyEnv interface {
	NetworkFactor(source string) float64
}

func networkFactor(env Env, source string) float64 {
	l, ok := env.(LatencyEnv)
	if !ok {
		return 1
	}
	f := l.NetworkFactor(source)
	if f <= 0 {
		return 1
	}
	return f
}

// Reoptimize revises an already-optimized (Remote-placed) plan against
// the environment's current estimates: join order and semi-join-vs-
// pushdown strategy are re-decided; placement is kept (place is
// idempotent on Remote boundaries, and moving them mid-query would
// invalidate fetches already priced in). The engine calls this when a
// cardinality tripwire fires mid-query, with an env whose feedback store
// has absorbed the aborted attempt's observations. It ends, as Optimize
// does, by recording the revised estimates on the plan, so the next
// attempt's records and tripwires read the numbers it was revised from.
//
// Rebuilt joins run without intra-operator parallelism hints:
// annotateParallelism does not run here. A re-planned query keeps
// inter-source prefetch, which is what matters at the mediator's scale.
func Reoptimize(root plan.Node, env Env, opts Options) plan.Node {
	est := newEstimator(env) // shared by every pass, as in optimize
	defer est.release()
	n := root
	if !opts.NoJoinReorder {
		n = reorderJoins(nil, n, est)
	}
	if !opts.NoRemotePushdown && !opts.NoSemiJoin {
		n = annotateSemiJoins(nil, n, est)
	}
	return annotateEstimates(nil, n, est)
}

// Estimator exposes the optimizer's row estimation — including feedback
// blending when the env supports it — to other layers: it is what the
// estimates a plan carries (plan.Estimate) are checked against. It
// memoizes every node's estimate and feedback signature, so it derives
// each once, however often it is asked. It is not safe for concurrent
// use.
type Estimator struct{ est estimator }

var estimatorPool = sync.Pool{New: func() any { return &Estimator{est: estimator{all: true}} }}

// NewEstimator returns a pooled estimator over the environment, with an
// empty memo; Release returns it.
func NewEstimator(env Env) *Estimator {
	e := estimatorPool.Get().(*Estimator)
	e.est.reset(env)
	return e
}

// Release clears the memos, keeping their storage and the signature
// buffer, and recycles the estimator. The caller must not use it, or a
// shape it returned, afterwards.
func (e *Estimator) Release() {
	e.est.clear()
	estimatorPool.Put(e)
}

// Rows returns the estimated output cardinality of a plan node, rounded.
func (e *Estimator) Rows(n plan.Node) int64 { return e.est.rounded(n) }

// Signature returns the node's feedback signature, as feedback.Signature
// renders it, from the same memo the estimates draw on. The shape is
// borrowed until Release.
func (e *Estimator) Signature(n plan.Node) (feedback.Shape, bool) {
	return e.est.signature(n)
}

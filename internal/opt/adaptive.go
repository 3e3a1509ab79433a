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
	// Observed returns the feedback estimate for a key, if one exists
	// with usable confidence.
	Observed(k feedback.Key) (feedback.Estimate, bool)
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
// has absorbed the aborted attempt's observations.
//
// Rebuilt joins run without intra-operator parallelism hints:
// annotateParallelism does not run here. A re-planned query keeps
// inter-source prefetch, which is what matters at the mediator's scale.
func Reoptimize(root plan.Node, env Env, opts Options) plan.Node {
	n := root
	if !opts.NoJoinReorder {
		n = reorderJoins(n, env)
	}
	if !opts.NoRemotePushdown && !opts.NoSemiJoin {
		n = annotateSemiJoins(n, env)
	}
	return n
}

// Estimator exposes the optimizer's row estimation — including feedback
// blending when the env supports it — to other layers (the engine hands
// one to the executor so the cardinality ledger records
// estimated-vs-actual pairs per operator). It memoizes every node's
// estimate and feedback signature, so one execution attempt derives each
// once, however many operator boundaries and fetch records ask. It is not
// safe for concurrent use.
type Estimator struct{ est estimator }

var estimatorPool = sync.Pool{New: func() any { return &Estimator{est: estimator{all: true}} }}

// NewEstimator returns a pooled estimator over the environment, with an
// empty memo; Release returns it.
func NewEstimator(env Env) *Estimator {
	e := estimatorPool.Get().(*Estimator)
	e.est.reset(env)
	return e
}

// Release clears the memos, keeping their storage, and recycles the
// estimator. The caller must not use it afterwards.
func (e *Estimator) Release() {
	clear(e.est.rowsMemo)
	clear(e.est.sigMemo)
	e.est.reset(nil)
	estimatorPool.Put(e)
}

// Rows returns the estimated output cardinality of a plan node, rounded.
func (e *Estimator) Rows(n plan.Node) int64 {
	r := e.est.Rows(n)
	if r < 0 {
		return 0
	}
	return int64(r)
}

// Signature returns the node's feedback key, as feedback.Signature does,
// from the same memo the estimates draw on.
func (e *Estimator) Signature(n plan.Node) (feedback.Key, bool) {
	return e.est.signature(n)
}

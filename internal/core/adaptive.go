package core

// Adaptive query processing: the engine-side wiring of the runtime-
// cardinality feedback loop. Execution keeps an always-on cardinality
// ledger (exec.CardLedger); completed and aborted attempts feed the
// feedback store; planning consults the store through adaptiveEnv; and
// when an operator blows through its estimate by ReplanFactor mid-query,
// execution pauses at the batch boundary, the unexecuted remainder is
// re-optimized against the updated estimates, and the query re-runs —
// results stay byte-identical because no rows have been delivered to the
// caller before the drain completes.

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/exec"
	"repro/internal/feedback"
	"repro/internal/opt"
	"repro/internal/plan"
)

const (
	// ReplanFactor is the underestimate multiple that triggers mid-query
	// re-optimization: an operator that has produced 10x its estimated
	// rows is running on a plan costed from fiction.
	ReplanFactor = 10
	// ReplanMinRows is the absolute floor under which no re-plan fires:
	// being 10x off about a few hundred rows costs less than re-planning.
	ReplanMinRows = 512
	// MaxReplans bounds how many times one query may re-plan, so a
	// workload the estimator simply cannot model terminates.
	MaxReplans = 2
	// estimateErrorFactor is the misestimate ratio past which an operator
	// counts into Result.EstimateErrors.
	estimateErrorFactor = 10
)

// adaptiveEnv is the planning environment with runtime feedback layered
// over the static engineEnv: observed cardinalities blend into estimates
// (opt.FeedbackEnv) and observed per-source latency plus breaker
// half-open state bias transfer costs (opt.LatencyEnv). The catalog
// snapshot stays untouched — feedback lives beside it, read-only.
type adaptiveEnv struct{ engineEnv }

func (env adaptiveEnv) Observed(k feedback.Key) (feedback.Estimate, bool) {
	return env.st.feedback.Lookup(k)
}

func (env adaptiveEnv) NetworkFactor(source string) float64 {
	f := env.st.feedback.NetworkFactor(source)
	// A half-open breaker means the source just spent an open-timeout
	// failing: it is reachable again but unproven. Double its modelled
	// transfer cost so the optimizer prefers alternatives without
	// refusing the source outright (E12's mask stays binary; this is the
	// graded middle).
	if br := env.st.breakers[strings.ToLower(source)]; br != nil && br.State() == BreakerHalfOpen {
		f *= 2
		if f > 4 {
			f = 4
		}
	}
	return f
}

// planEnv returns the optimizer environment for a query: feedback-blended
// when the query runs adaptive, the untouched static env otherwise —
// Adaptive=false must reproduce today's plans exactly.
func (s *engineState) planEnv(qo QueryOptions) opt.Env {
	if !qo.Adaptive {
		return engineEnv{s}
	}
	return adaptiveEnv{engineEnv{s}}
}

// Feedback exposes the feedback store (experiments and tests inspect it).
func (e *Engine) Feedback() *feedback.Store { return e.state.Load().feedback }

// optimizerOptions derives the opt.Options a query plans under (compile
// and Reoptimize must agree).
func optimizerOptions(qo QueryOptions) opt.Options {
	optOpts := qo.Optimizer
	if qo.NoSemiJoin {
		optOpts.NoSemiJoin = true
	}
	return optOpts
}

// swapEstimator is one execution's memoizing estimator: the executor's
// operator boundaries and then absorbLedger all draw on it, so an attempt
// estimates each node and renders each feedback signature once. The
// replan loop swaps in a fresh one (over updated feedback, with an empty
// memo) between attempts without ever rewriting the exec.Options the
// attempts share. The mutex is there for union inputs, the one place
// BuildBatch runs inside prefetch goroutines.
type swapEstimator struct {
	mu  sync.Mutex
	est *opt.Estimator
}

func (s *swapEstimator) rows(n plan.Node) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Rows(n)
}

func (s *swapEstimator) signature(n plan.Node) (feedback.Key, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Signature(n)
}

// swap replaces the estimator after the feedback store absorbed an
// aborted attempt, so the next attempt's ledger records post-feedback
// estimates (the ones the re-optimized plan was actually built from).
// With env nil it only releases the current one.
func (s *swapEstimator) swap(env opt.Env) {
	s.mu.Lock()
	if s.est != nil {
		s.est.Release()
		s.est = nil
	}
	if env != nil {
		s.est = opt.NewEstimator(env)
	}
	s.mu.Unlock()
}

// absorbLedger feeds one execution attempt's cardinality ledger into the
// feedback store: per-fetch observed rows keyed by (source, table,
// predicate signature), and per-source latency calibration was already
// recorded at fetch time. Signatures and planned rows come from the
// attempt's own estimator. It returns how many operators misestimated by
// estimateErrorFactor or more. Must only be called after the attempt's
// goroutines have joined (the ledger contract).
func (s *engineState) absorbLedger(led *exec.CardLedger, se *swapEstimator) (estErrors int) {
	fb := s.feedback
	for _, f := range led.Fetches() {
		key, ok := se.signature(f.Subtree)
		if !ok {
			continue
		}
		fb.Observe(key, f.Rows, float64(se.rows(f.Subtree)))
	}
	for _, op := range led.Ops() {
		if op.Est < 0 {
			continue
		}
		a, p := float64(op.Rows)+1, float64(op.Est)+1
		if a >= estimateErrorFactor*p || p >= estimateErrorFactor*a {
			estErrors++
		}
	}
	return estErrors
}

// renderExplain formats the executed plan with estimated-vs-observed rows
// per operator, read from the final attempt's ledger — the `--explain` /
// `?explain=1` / EXPLAIN ANALYZE surface: estimate error inspectable
// without full tracing. Falls under the ledger's read contract: call it
// only after the attempt's goroutines have joined.
func renderExplain(p plan.Node, led *exec.CardLedger, replans int) string {
	cards := led.ByNode()
	var b strings.Builder
	if replans > 0 {
		fmt.Fprintf(&b, "-- re-planned %dx mid-query (cardinality tripwire)\n", replans)
	}
	var walk func(plan.Node, int)
	walk = func(n plan.Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		if c, ok := cards[n]; ok {
			if c.Est >= 0 {
				fmt.Fprintf(&b, "  (est=%d actual=%d)", c.Est, c.Rows)
			} else {
				fmt.Fprintf(&b, "  (actual=%d)", c.Rows)
			}
		}
		b.WriteByte('\n')
		plan.MapInputs(n, func(in plan.Node) plan.Node {
			walk(in, depth+1)
			return in
		})
	}
	walk(p, 0)
	return b.String()
}

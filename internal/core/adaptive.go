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

	"repro/internal/datum"
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

func (env adaptiveEnv) Observed(k feedback.Shape) (feedback.Estimate, bool) {
	return env.st.feedback.Lookup(k)
}

// Stream implements opt.StreamEnv for static and adaptive planning alike:
// an explain query feeds the store whichever way its plan was costed.
func (env engineEnv) Stream(k feedback.Shape) *plan.Stream {
	return env.st.feedback.Stream(k)
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

// absorbLedger feeds one execution attempt's cardinality ledger into the
// feedback store: per fetch, the observed rows of the stream its Remote
// carries, against the estimate it carries — both recorded on the plan by
// the optimizer's last pass, which is all a first observation of a stream
// reads of the plan (per-source latency calibration was already recorded
// at fetch time). It returns how many operators misestimated by
// estimateErrorFactor or more. Must only be called after the attempt's
// goroutines have joined (the ledger contract).
func (s *engineState) absorbLedger(led *exec.CardLedger) (estErrors int) {
	for _, f := range led.Fetches() {
		if k := f.Fetch.Stream; k != nil {
			s.feedback.Observe(*k, f.Rows, float64(f.Fetch.EstRows()))
		}
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
// only after the attempt's goroutines have joined. The values the plan
// template ran with follow it on a line of their own.
func renderExplain(p plan.Node, led *exec.CardLedger, replans int, params []datum.Datum) string {
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
		plan.MapInputs(nil, n, func(in plan.Node) plan.Node {
			walk(in, depth+1)
			return in
		})
	}
	walk(p, 0)
	if len(params) > 0 {
		fmt.Fprintf(&b, "-- values: %s\n", renderValues(params))
	}
	return b.String()
}

// renderValues lists the values a plan template ran with, as SQL
// literals: "$1 = 'west', $2 = 100"; empty for none.
func renderValues(params []datum.Datum) string {
	var b strings.Builder
	for i, v := range params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "$%d = %s", i+1, v)
	}
	return b.String()
}

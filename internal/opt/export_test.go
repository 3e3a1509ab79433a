package opt

import (
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// EstimatorWork reads the process-wide memo-miss counters: Rows
// evaluations and feedback-signature renderings performed so far.
func EstimatorWork() (rows, signatures int64) {
	return rowsEvaluated.Load(), signaturesRendered.Load()
}

// FeedbackLookups reads the process-wide count of feedback observations
// estimators asked their environment for: in the engine, each is one
// feedback.Store.Lookup.
func FeedbackLookups() int64 { return feedbackLookups.Load() }

// RowsFloat is Rows before rounding, for bit-exact comparisons.
func (e *Estimator) RowsFloat(n plan.Node) float64 { return e.est.Rows(n) }

// PlanningRows is what a planning estimator — the optimizer's own, which
// memoizes only blended Scans and Filters — derives for n from scratch.
func PlanningRows(env Env, n plan.Node) float64 { return newEstimator(env).Rows(n) }

// DistinctOf is a planning estimator's distinct-value estimate for e over n.
func DistinctOf(env Env, e sqlparse.Expr, n plan.Node) float64 {
	return newEstimator(env).distinctOf(e, n)
}

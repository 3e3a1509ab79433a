package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/opt"
	"repro/internal/sqlparse"
)

// CompileCosts compiles sql fresh under qo and returns the cost the
// compile priced its plan at, and the cost opt.Cost gives the same plan
// under a fresh estimator.
func (e *Engine) CompileCosts(ctx context.Context, sql string, qo QueryOptions) (compiled, fresh opt.PlanCost, err error) {
	st := e.state.Load()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return compiled, fresh, err
	}
	cp, err := e.compile(ctx, st, sel, qo, e.catalog.Snapshot())
	if err != nil {
		return compiled, fresh, err
	}
	return cp.cost, opt.Cost(cp.tmpl, st.planEnv(qo)), nil
}

// NewTestFederation is newFederation for external tests.
func NewTestFederation(t *testing.T) *Engine { return newFederation(t) }

// EquivalenceStatements returns the first n statements
// TestOptimizerEquivalenceRandomQueries runs over NewTestFederation.
func EquivalenceStatements(n int) []string {
	gen := queryGenerator{rng: rand.New(rand.NewSource(20050614))}
	out := make([]string, n)
	for i := range out {
		out[i] = gen.next()
	}
	return out
}

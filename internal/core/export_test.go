package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// CompileCosts compiles sql fresh under qo and returns the cost the
// compile priced its plan at, and the cost opt.Cost gives the same plan
// under a fresh estimator.
func (e *Engine) CompileCosts(sql string, qo QueryOptions) (compiled, fresh opt.PlanCost, err error) {
	st := e.state.Load()
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	cp, err := e.compile(st, ar, sql, qo, e.catalog.Snapshot())
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

// MissTemplate normalizes sql in ar as a query does and compiles it as a
// plan-cache miss does, the key text parsed into ar and compiled there,
// and returns the key text with the template the cache would keep. A
// statement the cache cannot serve compiles from its own text, as
// runStatement's uncached branch does.
func (e *Engine) MissTemplate(ar *sqlparse.Arena, sql string, qo QueryOptions) (string, plan.Node, error) {
	sel, err := sqlparse.ParseArena(ar, sql)
	if err != nil {
		return "", nil, err
	}
	key := sql
	if _, cacheable := sqlparse.ExtractParamsIn(ar, sel); cacheable {
		key = ar.RenderSQL(sel)
	}
	cp, err := e.compile(e.state.Load(), ar, key, qo, e.catalog.Snapshot())
	if err != nil {
		return "", nil, err
	}
	return key, cp.tmpl, nil
}

// HeapPlan compiles key with no arena anywhere: a heap parse, plan.Build
// and the optimizer on the heap, and no retained copy.
func (e *Engine) HeapPlan(key string, qo QueryOptions) (plan.Node, error) {
	sel, err := sqlparse.Parse(key)
	if err != nil {
		return nil, err
	}
	st := e.state.Load()
	logical, err := plan.Build(e.catalog.Snapshot(), sel)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(logical, st.planEnv(qo), optimizerOptions(qo)), nil
}

// BoundPlan compiles sql as a plan-cache miss does, in ar, and binds the
// statement's constants into the template, for RunRecorded, which runs a
// plan with no values; it returns the bound plan and the environment the
// compile costed it under.
func (e *Engine) BoundPlan(ar *sqlparse.Arena, sql string, qo QueryOptions) (plan.Node, opt.Env, error) {
	sel, err := sqlparse.ParseArena(ar, sql)
	if err != nil {
		return nil, nil, err
	}
	key, params := sql, []datum.Datum(nil)
	if ps, cacheable := sqlparse.ExtractParamsIn(ar, sel); cacheable {
		key, params = ar.RenderSQL(sel), ps
	}
	st := e.state.Load()
	cp, err := e.compile(st, ar, key, qo, e.catalog.Snapshot())
	if err != nil {
		return nil, nil, err
	}
	bound, err := plan.BindParamsIn(ar, cp.tmpl, params)
	return bound, st.planEnv(qo), err
}

// RunRecorded executes p on one goroutine with the per-operator ledger on,
// feeding the feedback store nothing, and hands the ledger to check.
// Operators and reduced fetches come from the heap, so check may read
// every node the ledger names.
func (e *Engine) RunRecorded(ctx context.Context, p plan.Node, qo QueryOptions, check func(*exec.CardLedger)) error {
	rt := &queryRuntime{st: e.state.Load(), ctx: ctx}
	rt.opts = rt.execOptions(qo)
	rt.opts.Parallel, rt.opts.Parallelism = false, 1
	led := &exec.CardLedger{}
	rt.opts.Cards = led
	it, err := exec.BuildBatch(ctx, p, rt, rt.opts)
	if err == nil {
		_, err = exec.DrainBatches(it)
	}
	check(led)
	return err
}

// StatementPlan plans sql as QueryOptsCtx does, through the plan cache as
// it stands, and returns the template, a copy of the values bound into
// it, whether it was a cache hit, and whether the statement was parsed: a
// parse draws at least its Select node from the query's arena, and the
// token path draws nothing from it.
func (e *Engine) StatementPlan(sql string, qo QueryOptions) (tmpl plan.Node, params []datum.Datum, hit, parsed bool, err error) {
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	cp, params, hit, err := e.statementPlan(e.state.Load(), ar, sql, qo, e.catalog.Snapshot())
	if err != nil {
		return nil, nil, false, false, err
	}
	return cp.tmpl, slices.Clone(params), hit, ar.Bytes() > 0, nil
}

// CachedTemplate returns the template the plan cache holds under the
// normalized statement norm and qo, nil for none.
func (e *Engine) CachedTemplate(norm string, qo QueryOptions) plan.Node {
	if v, ok := e.plans.Get(e.state.Load().planKey(norm, qo)); ok {
		return v.(*compiledPlan).tmpl
	}
	return nil
}

// QueryUnprepared runs sql as QueryOptsCtx does, through the plan cache
// as it stands, except that the template runs with no prepared slots, as
// a plan that has just compiled does: a warm hit's unprepared twin.
func (e *Engine) QueryUnprepared(ctx context.Context, sql string, qo QueryOptions) (*Result, error) {
	st := e.state.Load()
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	snap := e.catalog.Snapshot()
	cp, params, _, err := e.statementPlan(st, ar, sql, qo, snap)
	if err != nil {
		return nil, err
	}
	return e.runStatement(ctx, st, ar, st.clock.Now(), sql, cp, params, false, snap, qo)
}

// PreparedFragments returns the prepared-fragment slots of the plan the
// cache holds under the normalized statement norm and qo: nil when it
// holds none, or holds a plan that has not yet served a second query.
func (e *Engine) PreparedFragments(norm string, qo QueryOptions) *exec.Fragments {
	if v, ok := e.plans.Get(e.state.Load().planKey(norm, qo)); ok {
		return v.(*compiledPlan).frags.Load()
	}
	return nil
}

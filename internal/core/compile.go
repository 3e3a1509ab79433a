package core

// This file holds the compilation pipeline: the single path every query
// takes from SQL text to an optimized plan, the plan cache that memoizes
// it, and prepared statements — compile once, execute many times with
// different bound constants.
//
// The pipeline is pure given three inputs: the statement text, the catalog
// snapshot, and the plan-shaping options. The cache key captures all three
// (plus the source-availability mask, which changes plan placement without
// touching the catalog), so a cached plan is exactly the plan a fresh
// compile would produce.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/sqlparse"
)

// compiledPlan is one plan-cache entry: an immutable optimized plan
// template (it may contain unbound parameters) plus what's needed to bind
// and account for it.
type compiledPlan struct {
	tmpl    plan.Node
	nParams int
	// cost is the optimizer's estimate for the template, computed once at
	// insertion so cached executions don't re-walk the plan per query.
	cost opt.PlanCost
	// fbGen is the feedback-store generation the plan was costed under.
	// Adaptive lookups treat an entry whose generation has since drifted
	// (the store bumps only on large estimate shifts, not every
	// observation) as invalid: the cached join order and semi-join
	// decisions were made from estimates now known to be wrong.
	fbGen uint64
}

// compile runs the planning pipeline over one catalog snapshot:
// rewrite-EXISTS (pre-evaluating subqueries), view unfolding, and
// cost-based optimization. The select statement may be mutated by the
// rewrite phase; callers hand over ownership. The context bounds the
// EXISTS pre-evaluation, which runs real subqueries.
func (e *Engine) compile(ctx context.Context, st *engineState, sel *sqlparse.Select, qo QueryOptions, snap *catalog.Snapshot) (plan.Node, error) {
	if err := e.rewriteExists(ctx, st, sel, qo, 0); err != nil {
		return nil, err
	}
	logical, err := plan.Build(snap, sel)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(logical, st.planEnv(qo), optimizerOptions(qo)), nil
}

// optionsFingerprint encodes the plan-shaping options into a cache-key
// component. Execution-only options (parallelism, retries, deadlines,
// partial-result policy) deliberately do not appear: they tune how a plan
// runs, not which plan is built.
func optionsFingerprint(qo QueryOptions) string {
	bits := []bool{
		qo.Optimizer.NoFilterPushdown,
		qo.Optimizer.NoProjectionPrune,
		qo.Optimizer.NoJoinReorder,
		qo.Optimizer.NoRemotePushdown,
		qo.Optimizer.NoSemiJoin,
		qo.NoSemiJoin,
		qo.Adaptive,
	}
	var b strings.Builder
	for _, bit := range bits {
		if bit {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// availabilityMask encodes which sources are currently reachable (circuit
// breaker not open). The optimizer routes around unavailable sources, so
// plans compiled under different masks are not interchangeable; keying on
// the mask also lets a breaker's timed open→half-open transition surface
// as a cache miss rather than a stale plan.
func (s *engineState) availabilityMask() string {
	// The name-sorted breaker list is topology, built when the state was
	// published; only the per-breaker State() reads happen per query.
	breakers := s.maskBreakers
	var stack [64]byte
	buf := stack[:0]
	if len(breakers) > len(stack) {
		buf = make([]byte, 0, len(breakers))
	}
	for _, br := range breakers {
		if br == nil || br.State() != BreakerOpen {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	return string(buf)
}

// planKey builds the cache key for a normalized statement under the
// query's options and engine state.
func (s *engineState) planKey(normSQL string, version uint64, qo QueryOptions) plancache.Key {
	return plancache.Key{
		SQL:            normSQL,
		CatalogVersion: version,
		Options:        optionsFingerprint(qo),
		Availability:   s.availabilityMask(),
	}
}

// PlanCacheStats returns the plan cache's effectiveness counters.
func (e *Engine) PlanCacheStats() plancache.Stats { return e.plans.Stats() }

// InvalidatePlans drops every cached plan and returns how many were
// removed. Normal catalog changes invalidate automatically (the version is
// part of the cache key); this is for out-of-band changes the engine
// cannot see, such as directly mutated source catalogs.
func (e *Engine) InvalidatePlans() int { return e.plans.Purge() }

// BumpCatalog advances the catalog version and drops plans compiled
// against older versions. Subsystems that change planning inputs living
// outside the catalog proper (correlation tables, materialized-view
// routing, breaker reconfiguration) call this so version-keyed consumers
// can't serve stale plans.
func (e *Engine) BumpCatalog() uint64 {
	v := e.catalog.Bump()
	e.plans.InvalidateOlder(v)
	return v
}

// invalidateStalePlans removes cache entries older than the current
// catalog version; called after every catalog mutation.
func (e *Engine) invalidateStalePlans() {
	e.plans.InvalidateOlder(e.catalog.Version())
}

// PreparedStatement is a statement compiled ahead of execution. Its plan
// is cached in the engine's plan cache; ExecuteCtx binds parameter values
// into the cached template and runs it. When the catalog version or source
// availability changes between executions, the next ExecuteCtx
// transparently recompiles (a cache miss under the new key) — a prepared
// statement never runs against a stale schema.
type PreparedStatement struct {
	e  *Engine
	qo QueryOptions
	// text is the normalized statement text (the cache key's SQL).
	text string
	// nParams is how many parameter values ExecuteCtx requires.
	nParams int
	// cacheable is false when the statement contains EXISTS / IN
	// (SELECT ...) subqueries, which are pre-evaluated against live data
	// at compile time; such statements recompile on every ExecuteCtx.
	cacheable bool
}

// PrepareOpts compiles a statement for repeated execution; it may contain
// `?` or `$n` placeholders. Compilation errors (syntax, unknown tables or
// columns) surface here, not at ExecuteCtx.
func (e *Engine) PrepareOpts(ctx context.Context, sql string, qo QueryOptions) (*PreparedStatement, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	nParams := sqlparse.MaxParamIndex(sel)
	cacheable := true
	sqlparse.WalkSelectExprs(sel, func(x sqlparse.Expr) {
		switch x.(type) {
		case *sqlparse.ExistsExpr, *sqlparse.InSubquery:
			cacheable = false
		}
	})
	ps := &PreparedStatement{
		e:         e,
		qo:        qo,
		text:      sel.SQL(),
		nParams:   nParams,
		cacheable: cacheable,
	}
	if cacheable {
		// Compile eagerly so PrepareOpts validates the statement; the plan
		// lands in the cache for the first ExecuteCtx. EXISTS statements
		// skip this: compiling them runs subqueries.
		if _, _, err := e.cachedTemplate(ctx, e.state.Load(), ps.text, qo, e.catalog.Snapshot()); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// NumParams returns how many parameter values ExecuteCtx requires.
func (ps *PreparedStatement) NumParams() int { return ps.nParams }

// SQL returns the normalized statement text.
func (ps *PreparedStatement) SQL() string { return ps.text }

// cachedTemplate returns the compiled plan-cache entry for a normalized
// statement, consulting the plan cache first. The bool reports whether it
// was a cache hit.
func (e *Engine) cachedTemplate(ctx context.Context, st *engineState, normSQL string, qo QueryOptions, snap *catalog.Snapshot) (*compiledPlan, bool, error) {
	key := st.planKey(normSQL, snap.Version(), qo)
	if v, ok := e.plans.Get(key); ok {
		cp := v.(*compiledPlan)
		if !qo.Adaptive || cp.fbGen == st.feedback.Generation() {
			return cp, true, nil
		}
		// The feedback store drifted past its bump threshold since this
		// plan was costed: its join order and semi-join choices came from
		// estimates now contradicted by observation. Drop it and recompile
		// against current feedback.
		e.plans.InvalidateDrift(key)
	}
	sel, err := sqlparse.Parse(normSQL)
	if err != nil {
		return nil, false, err
	}
	// Capture the generation before compiling: a concurrent drift during
	// compilation then invalidates this entry on its next adaptive lookup
	// instead of being missed.
	fbGen := st.feedback.Generation()
	tmpl, err := e.compile(ctx, st, sel, qo, snap)
	if err != nil {
		return nil, false, err
	}
	cp := &compiledPlan{
		tmpl:    tmpl,
		nParams: sqlparse.MaxParamIndex(sel),
		cost:    opt.Cost(tmpl, st.planEnv(qo)),
		fbGen:   fbGen,
	}
	e.plans.Put(key, cp)
	return cp, false, nil
}

// ExecuteCtx binds parameter values ($1 = params[0], ...) and runs the
// statement, recompiling first if the catalog changed since the plan was
// cached. Cancellation and deadline propagate into recompilation (EXISTS
// subqueries) and execution. As with QueryOptsCtx, a non-nil *Result may
// accompany an execution error.
func (ps *PreparedStatement) ExecuteCtx(ctx context.Context, params ...datum.Datum) (*Result, error) {
	if len(params) < ps.nParams {
		return nil, fmt.Errorf("core: statement requires %d parameters, got %d", ps.nParams, len(params))
	}
	st := ps.e.state.Load()
	planStart := st.clock.Now()
	// Bound parameter subtrees live in the query's arena (see QueryOptsCtx
	// for the lifecycle argument); the template itself stays on the heap.
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	return ps.e.runStatement(ctx, st, ar, planStart, ps.text, ps.text, params, ps.cacheable && !ps.qo.NoPlanCache, ps.qo)
}

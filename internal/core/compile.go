package core

// This file holds the compilation pipeline: the single path every query
// takes from SQL text to an optimized plan, the plan cache that memoizes
// it, and prepared statements — compile once, execute many times with
// different values.
//
// The pipeline is pure given three inputs: the statement text, the catalog
// snapshot, and the plan-shaping options. The cache key captures the text
// and the options (plus the source-availability mask, which changes plan
// placement without touching the catalog). The catalog is captured by what
// the compile read of it: the snapshot version and every name it resolved.
// A hit is served only while the current snapshot says none of those names
// changed since, and a catalog write sweeps out the plans that read what
// it changed — so a cached plan is exactly the plan a fresh compile would
// produce, and a write no plan read retires nothing.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/sqlparse"
)

// compiledPlan is one plan-cache entry: an immutable optimized plan
// template (it may hold parameters, whose values each execution brings)
// plus what's needed to run and account for it, and to tell when it goes
// stale.
type compiledPlan struct {
	tmpl    plan.Node
	nParams int
	// cost is the optimizer's estimate for the template, priced by the
	// compile's own estimator, so cached executions don't re-walk the plan
	// per query.
	cost opt.PlanCost
	// fbGen is the feedback-store generation the plan was costed under.
	// Adaptive lookups treat an entry whose generation has since drifted
	// (the store bumps only on large estimate shifts, not every
	// observation) as invalid: the cached join order and semi-join
	// decisions were made from estimates now known to be wrong.
	fbGen uint64
	// version is the catalog snapshot version the plan compiled against,
	// and reads every name plan.Build resolved for it, those inside
	// unfolded and nested views included.
	version uint64
	reads   []catalog.Name
	// lits is the literal map of the token key the plan is stored with
	// (see sqlparse.CacheKeys): how a statement of that key binds its
	// parameters from its tokens.
	lits string
	// frags holds what is prepared for the plan's executions: its
	// mediator nodes' expressions, and one slot per Remote where its
	// sources keep what they prepared of their fragments. It is made by
	// the plan's second reuse (see fragments) and retired with the plan.
	frags atomic.Pointer[exec.Fragments]
	// reuses counts the hits served before frags was made.
	reuses atomic.Int32
}

// prepareAt is the reuse of a plan that prepares it. Most plans a stream
// of ad-hoc statements caches are reused once at most before they are
// evicted, and preparing a plan costs some thirty allocations: on the
// first reuse that cost adhoc_churn 3.4 allocations a query. A second
// reuse marks a plan that keeps serving.
const prepareAt = 2

// fragments returns what is prepared for the plan's executions, making it
// on the plan's prepareAt-th reuse; nil before.
func (cp *compiledPlan) fragments() *exec.Fragments {
	if f := cp.frags.Load(); f != nil {
		return f
	}
	if cp.reuses.Add(1) < prepareAt {
		return nil
	}
	cp.frags.CompareAndSwap(nil, exec.NewFragments(cp.tmpl))
	return cp.frags.Load()
}

// withLits returns a copy of the plan that binds statements by the
// literal map lits, sharing everything else, its slots included.
func (cp *compiledPlan) withLits(lits string) *compiledPlan {
	out := &compiledPlan{tmpl: cp.tmpl, nParams: cp.nParams, cost: cp.cost, fbGen: cp.fbGen,
		version: cp.version, reads: cp.reads, lits: lits}
	out.frags.Store(cp.frags.Load())
	return out
}

// current reports whether the plan may serve a query under snap: no name
// it read has changed since it compiled, and under adaptive options the
// feedback store has not drifted since it was costed.
func (cp *compiledPlan) current(st *engineState, qo QueryOptions, snap *catalog.Snapshot) bool {
	return !snap.ChangedSince(cp.version, cp.reads) && !(qo.Adaptive && cp.fbGen != st.feedback.Generation())
}

// readsAny reports whether the plan resolved any of names.
func (cp *compiledPlan) readsAny(names []catalog.Name) bool {
	for _, n := range cp.reads {
		if slices.Contains(names, n) {
			return true
		}
	}
	return false
}

// readSet is every name a cached plan's compile has read. A write to
// names outside it has no cached dependents, so it skips the sweep. The
// set only grows, by names the catalog resolved for some stored plan.
type readSet struct {
	mu    sync.Mutex
	names map[catalog.Name]struct{}
}

func (r *readSet) add(names []catalog.Name) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names == nil {
		r.names = make(map[catalog.Name]struct{})
	}
	for _, n := range names {
		r.names[n] = struct{}{}
	}
}

// holdsAny reports whether any of names was ever read.
func (r *readSet) holdsAny(names []catalog.Name) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		if _, ok := r.names[n]; ok {
			return true
		}
	}
	return false
}

// recordingReader resolves names against a snapshot and records each
// distinct one it is asked for, as written — a subquery's and a view
// body's too: the plan cache retires a plan by the names its compile read.
type recordingReader struct {
	*catalog.Snapshot
	reads []catalog.Name
	buf   [4]catalog.Name // backs reads for the usual handful of names
}

func (r *recordingReader) Resolve(source, name string) (catalog.Resolution, error) {
	if n := catalog.NameOf(source, name); !slices.Contains(r.reads, n) {
		r.reads = append(r.reads, n)
	}
	return r.Snapshot.Resolve(source, name)
}

// compile runs the planning pipeline for the statement text over one
// catalog snapshot: parsing, view unfolding and subquery planning, and
// cost-based optimization under one estimator, which also prices the
// result. It runs nothing: the plan is a function of the text, the
// snapshot and the options. Every step draws from the query's arena ar,
// and only the finished plan reaches the heap, as plan.Retain's compact
// copy: the returned entry carries that template, its parameter count,
// its cost and what it read of the catalog; a caller that caches it
// fills in fbGen.
func (e *Engine) compile(st *engineState, ar *sqlparse.Arena, text string, qo QueryOptions, snap *catalog.Snapshot) (*compiledPlan, error) {
	sel, err := sqlparse.ParseArena(ar, text)
	if err != nil {
		return nil, err
	}
	rec := &recordingReader{Snapshot: snap}
	rec.reads = rec.buf[:0]
	logical, err := plan.BuildIn(ar, rec, sel)
	if err != nil {
		return nil, err
	}
	optimized, cost := opt.OptimizeCosted(ar, logical, st.planEnv(qo), optimizerOptions(qo))
	// Cached plans keep only the names, not the recorder around them.
	cp := &compiledPlan{nParams: sqlparse.MaxParamIndex(sel), cost: cost, version: snap.Version(), reads: slices.Clone(rec.reads)}
	// The retain check sees this store: the arena plan itself may not
	// reach the entry.
	cp.tmpl = plan.Retain(ar, optimized)
	return cp, nil
}

// optionsFingerprint encodes the plan-shaping options into a cache-key
// component: the optimizer options a compile runs under, so the two
// spellings of NoSemiJoin share one key as they share one plan, and
// Adaptive. Execution-only options (parallelism, retries, deadlines,
// partial-result policy) deliberately do not appear: they tune how a plan
// runs, not which plan is built.
func optionsFingerprint(qo QueryOptions) string {
	o := optimizerOptions(qo)
	bits := [optionBits]bool{
		o.NoFilterPushdown,
		o.NoProjectionPrune,
		o.NoJoinReorder,
		o.NoRemotePushdown,
		o.NoSemiJoin,
		qo.Adaptive,
	}
	n := 0
	for i, bit := range bits {
		if bit {
			n |= 1 << i
		}
	}
	return fingerprints[n]
}

const optionBits = 6

// fingerprints holds every string optionsFingerprint returns, so building
// a cache key allocates none: entry n spells n's bits as '0'/'1', lowest
// first.
var fingerprints = func() (fps [1 << optionBits]string) {
	for n := range fps {
		b := make([]byte, optionBits)
		for i := range b {
			b[i] = '0' + byte(n>>i&1)
		}
		fps[n] = string(b)
	}
	return fps
}()

// availabilityMask encodes which sources are currently unreachable
// (circuit breaker open), by name. The optimizer routes around unavailable
// sources, so plans compiled under different masks are not
// interchangeable; keying on the mask also lets a breaker's timed
// open→half-open transition surface as a cache miss rather than a stale
// plan. With every source reachable the mask is empty, so registering or
// removing a source leaves every other plan's key as it was.
func (s *engineState) availabilityMask() string {
	// The name-sorted breaker list is topology, built when the state was
	// published; only the per-breaker State() reads happen per query.
	var stack [64]byte
	buf := stack[:0]
	for i, br := range s.maskBreakers {
		if br != nil && br.State() == BreakerOpen {
			buf = append(buf, s.maskNames[i]...)
			buf = append(buf, 0)
		}
	}
	return string(buf)
}

// planKey builds the cache key for a normalized statement under the
// query's options and engine state.
func (s *engineState) planKey(normSQL string, qo QueryOptions) plancache.Key {
	return plancache.Key{
		SQL:          normSQL,
		Options:      optionsFingerprint(qo),
		Availability: s.availabilityMask(),
	}
}

// PlanCacheStats returns the plan cache's effectiveness counters.
func (e *Engine) PlanCacheStats() plancache.Stats { return e.plans.Stats() }

// InvalidatePlans drops every cached plan and returns how many were
// removed. Catalog changes made through the engine retire the plans that
// read what they changed on their own; this is for out-of-band changes the
// engine cannot see, such as tables added to or dropped from a source's
// catalog directly.
func (e *Engine) InvalidatePlans() int { return e.plans.Purge() }

// BumpCatalog advances the catalog version, raises the catalog's floor to
// it, and drops every cached plan. It is for changes outside the catalog
// that alter where every plan places its work — breaker reconfiguration,
// cluster fetch routing — which no name scopes.
func (e *Engine) BumpCatalog() uint64 {
	v := e.catalog.Bump()
	e.plans.Purge()
	return v
}

// retirePlans sweeps out every cached plan that read one of names, after a
// catalog write changed how they resolve; a write no cached plan ever read
// skips the scan. A plan still compiling against the older snapshot may
// land after the sweep; cachedTemplate's ChangedSince check keeps it from
// serving.
func (e *Engine) retirePlans(names []catalog.Name) {
	if !e.reads.holdsAny(names) {
		return
	}
	e.plans.RetireIf(func(v any) bool { return v.(*compiledPlan).readsAny(names) })
}

// PreparedStatement is a statement compiled ahead of execution. Its plan
// is cached in the engine's plan cache; ExecuteCtx runs the cached
// template with the parameter values it is given. When a catalog write changes a
// name the plan read, or source availability changes, between executions,
// the next ExecuteCtx transparently recompiles — a prepared statement
// never runs against a stale schema, and a write it did not read leaves
// its plan cached.
type PreparedStatement struct {
	e  *Engine
	qo QueryOptions
	// text is the normalized statement text (the cache key's SQL).
	text string
	// nParams is how many parameter values ExecuteCtx requires.
	nParams int
}

// PrepareOpts compiles a statement for repeated execution; it may contain
// `?` or `$n` placeholders, subqueries included. Compilation errors
// (syntax, unknown tables or columns) surface here, not at ExecuteCtx.
// Compiling runs nothing; a context already done returns its error.
func (e *Engine) PrepareOpts(ctx context.Context, sql string, qo QueryOptions) (*PreparedStatement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	sel, err := sqlparse.ParseArena(ar, sql)
	if err != nil {
		return nil, err
	}
	ps := &PreparedStatement{e: e, qo: qo, text: sel.SQL(), nParams: sqlparse.MaxParamIndex(sel)}
	// Compile eagerly: errors surface here, and the plan lands in the cache.
	if _, _, err := e.cachedTemplate(e.state.Load(), ar, sqlparse.CacheKeys{SQL: ps.text}, qo, e.catalog.Snapshot()); err != nil {
		return nil, err
	}
	return ps, nil
}

// NumParams returns how many parameter values ExecuteCtx requires.
func (ps *PreparedStatement) NumParams() int { return ps.nParams }

// SQL returns the normalized statement text.
func (ps *PreparedStatement) SQL() string { return ps.text }

// cachedTemplate returns the compiled plan-cache entry for a normalized
// statement, keys.SQL, consulting the plan cache first. The bool reports
// whether it was a cache hit. A miss parses the key text into the query's
// arena ar and compiles there, so the compiler's input is the canonical
// statement and the template's strings alias only the cache key; it
// stores the plan with keys.Tokens, when set, as its second key. A hit on
// a plan stored without a second key — compiled by PrepareOpts, say —
// gives it keys.Tokens, so the statement's next run is served before it
// is parsed.
func (e *Engine) cachedTemplate(st *engineState, ar *sqlparse.Arena, keys sqlparse.CacheKeys, qo QueryOptions, snap *catalog.Snapshot) (*compiledPlan, bool, error) {
	key := st.planKey(keys.SQL, qo)
	if ent, ok := e.plans.GetEntry(key); ok {
		cp := ent.Value().(*compiledPlan)
		switch {
		case snap.ChangedSince(cp.version, cp.reads):
			// A write changed a name this plan read after the plan began
			// compiling, and its sweep ran before the plan was stored.
			e.plans.Invalidate(key)
		case qo.Adaptive && cp.fbGen != st.feedback.Generation():
			// The feedback store drifted past its bump threshold since
			// this plan was costed: its join order and semi-join choices
			// came from estimates now contradicted by observation. Drop
			// it and recompile against current feedback.
			e.plans.InvalidateDrift(key)
		default:
			if keys.Tokens != "" && ent.Alt() == "" {
				// The plan is shared: the entry is replaced by one
				// holding a copy that binds by this statement's map.
				e.plans.AttachAlt(ent, keys.Tokens, cp.withLits(keys.Lits))
			}
			return cp, true, nil
		}
	}
	// Capture the generation before compiling: a concurrent drift during
	// compilation then invalidates this entry on its next adaptive lookup
	// instead of being missed.
	fbGen := st.feedback.Generation()
	cp, err := e.compile(st, ar, keys.SQL, qo, snap)
	if err != nil {
		return nil, false, err
	}
	cp.fbGen = fbGen
	cp.lits = keys.Lits
	e.reads.add(cp.reads)
	e.plans.PutAlt(key, keys.Tokens, cp)
	return cp, false, nil
}

// ExecuteCtx runs the statement with the parameter values params ($1 =
// params[0], ...), recompiling first if the catalog changed since the plan was
// cached. Too few values fail with a *plan.ParamError. Cancellation and
// deadline propagate into execution. As with QueryOptsCtx, a non-nil
// *Result may accompany an execution error.
func (ps *PreparedStatement) ExecuteCtx(ctx context.Context, params ...datum.Datum) (*Result, error) {
	st := ps.e.state.Load()
	planStart := st.clock.Now()
	// A recompile lives in the query's arena (see QueryOptsCtx for the
	// lifecycle argument); the template itself is retained on the heap.
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	snap := ps.e.catalog.Snapshot()
	var cp *compiledPlan
	hit := false
	var err error
	if ps.qo.NoPlanCache {
		cp, err = ps.e.compile(st, ar, ps.text, ps.qo, snap)
	} else {
		cp, hit, err = ps.e.cachedTemplate(st, ar, sqlparse.CacheKeys{SQL: ps.text}, ps.qo, snap)
	}
	if err != nil {
		return nil, err
	}
	return ps.e.runStatement(ctx, st, ar, planStart, ps.text, cp, params, hit, snap, ps.qo)
}

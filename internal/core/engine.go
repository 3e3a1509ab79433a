// Package core implements the EII mediator — the public API of the
// library. An Engine holds the registered sources and the mediated schema
// (virtual views); QueryCtx plans a SQL statement over the mediated schema,
// reformulates it into source queries (view unfolding), optimizes it with
// capability-aware pushdown, and executes it federated, returning rows plus
// the network accounting that the paper's performance arguments turn on.
package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"errors"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/feedback"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Engine is the mediator. It is safe for concurrent use. What it knows
// about its federation lives in one immutable engineState published through
// an atomic pointer — the same pattern as the catalog's snapshots — so
// queries never take a lock to learn it; mu only serialises the mutators.
type Engine struct {
	catalog  *catalog.Global
	plans    *plancache.Cache
	reads    readSet // every name a cached plan read
	inflight inflightRegistry

	mu    sync.Mutex // held by update, and by nothing else
	state atomic.Pointer[engineState]
}

// engineState is the engine's knowledge of its federation at one instant:
// which sources exist, whether each is reachable, and what the engine runs
// them with. A published state is never written again. Every read-path
// entry point loads it once and threads that one pointer through planning
// and execution, so a query sees a single configuration however the engine
// is reconfigured meanwhile.
type engineState struct {
	sources map[string]federation.Source // by lower-cased name
	// breakers holds one breaker per source from the moment it registers
	// (none while breakers are disabled); maskBreakers is the same set in
	// the order of the sorted source names maskNames, nil where a source
	// has none — what the availability mask reads on every query.
	breakers     map[string]*breaker
	maskBreakers []*breaker
	maskNames    []string
	breakerCfg   BreakerConfig
	clock        netsim.Clock
	replica      ReplicaProvider
	router       FetchRouter
	feedback     *feedback.Store
	admission    *admissionController
	governor     *exec.Governor
}

// update is the one way engine state changes: under mu, clone the current
// state, let edit change the clone, and publish it. The clone owns its maps
// but shares every object edit does not replace — breakers, the feedback
// store, the admission controller — so an unrelated mutation never resets
// a tripped breaker or learned estimates. An edit that backs out (a
// duplicate Register) publishes a state equal to the current one, which no
// reader can tell from it.
func (e *Engine) update(edit func(next *engineState)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := *e.state.Load()
	next.sources = maps.Clone(next.sources)
	next.breakers = maps.Clone(next.breakers)
	edit(&next)
	names := make([]string, 0, len(next.sources))
	for k := range next.sources {
		names = append(names, k)
	}
	sort.Strings(names)
	next.maskBreakers = make([]*breaker, len(names))
	for i, n := range names {
		next.maskBreakers[i] = next.breakers[n]
	}
	next.maskNames = names
	e.state.Store(&next)
}

// DefaultPlanCacheSize is the number of compiled plans the engine retains.
const DefaultPlanCacheSize = 1024

// New creates an empty mediator.
func New() *Engine {
	e := &Engine{
		catalog: catalog.NewGlobal(),
		plans:   plancache.New(DefaultPlanCacheSize),
	}
	e.state.Store(&engineState{
		sources:  map[string]federation.Source{},
		breakers: map[string]*breaker{},
		feedback: feedback.NewStore(netsim.Wall),
		clock:    netsim.Wall,
	})
	return e
}

// SetClock replaces the clock the engine's timers and circuit breakers
// run on (default: the wall clock). Installing a netsim.VirtualClock
// makes breaker open-timeouts and reported plan/exec timings
// deterministic. Existing breaker state is reset so every breaker shares
// the new clock.
func (e *Engine) SetClock(c netsim.Clock) {
	if c == nil {
		c = netsim.Wall
	}
	e.update(func(s *engineState) {
		s.clock = c
		s.resetBreakers()
		// Feedback confidence decays in this clock's time, so estimates
		// recorded against the old clock would age nonsensically: start fresh,
		// mirroring the breaker reset above.
		s.feedback = feedback.NewStore(c)
	})
}

// Clock returns the clock the engine currently runs on.
func (e *Engine) Clock() netsim.Clock { return e.state.Load().clock }

// ReplicaProvider serves locally-replicated copies of source tables (the
// warehouse implements this). During degraded execution the engine
// prefers answering from a fresh-enough replica over dropping the failed
// source from the result.
type ReplicaProvider interface {
	// ReplicaTable returns the replicated rows of source.table, the age
	// of the replica (time since its last refresh), and whether the
	// provider has that table at all.
	ReplicaTable(source, table string) (rows []datum.Row, age time.Duration, ok bool)
}

// SetReplicaProvider installs (or, with nil, removes) the replica used
// for degraded reads.
func (e *Engine) SetReplicaProvider(rp ReplicaProvider) {
	e.update(func(s *engineState) { s.replica = rp })
}

// Register adds a data source to the federation.
func (e *Engine) Register(src federation.Source) error {
	var err error
	e.update(func(s *engineState) {
		key := strings.ToLower(src.Name())
		if _, dup := s.sources[key]; dup {
			err = fmt.Errorf("core: source %s already registered", src.Name())
			return
		}
		if err = e.catalog.AddSource(src.Catalog()); err != nil {
			return
		}
		s.sources[key] = src
		s.addBreaker(key)
		e.retirePlans(catalog.SourceNames(src.Catalog()))
	})
	return err
}

// Deregister removes a source; existing views referencing it will fail to
// plan until re-pointed.
func (e *Engine) Deregister(name string) {
	e.update(func(s *engineState) {
		delete(s.sources, strings.ToLower(name))
		delete(s.breakers, strings.ToLower(name))
		sc, ok := e.catalog.Source(name)
		e.catalog.RemoveSource(name)
		if ok {
			e.retirePlans(catalog.SourceNames(sc))
		}
	})
}

func (s *engineState) source(name string) (federation.Source, bool) {
	src, ok := s.sources[strings.ToLower(name)]
	return src, ok
}

// Source returns a registered source.
func (e *Engine) Source(name string) (federation.Source, bool) {
	return e.state.Load().source(name)
}

// Sources lists registered source names, sorted.
func (e *Engine) Sources() []string {
	st := e.state.Load()
	names := make([]string, 0, len(st.sources))
	for _, s := range st.sources {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}

// Catalog exposes the global catalog (views + source schemas).
func (e *Engine) Catalog() *catalog.Global { return e.catalog }

// DefineView registers a mediated view. Views are the GAV mappings of the
// mediated schema: queries written against them are unfolded onto sources.
func (e *Engine) DefineView(name, sql string) error {
	if err := e.catalog.DefineView(name, sql); err != nil {
		return err
	}
	e.retirePlans([]catalog.Name{catalog.NameOf("", name)})
	return nil
}

// DropView removes a view.
func (e *Engine) DropView(name string) {
	e.catalog.DropView(name)
	e.retirePlans([]catalog.Name{catalog.NameOf("", name)})
}

// QueryOptions tunes planning and execution of one query.
type QueryOptions struct {
	// Optimizer toggles individual optimizations (ablation/baselines).
	Optimizer opt.Options
	// Parallel fetches remote inputs concurrently.
	Parallel bool
	// Parallelism caps the intra-query (morsel-driven) worker pool per
	// operator: 0 uses GOMAXPROCS, 1 forces sequential execution. Values
	// above 1 also imply Parallel (remote prefetch), since a query asking
	// for intra-operator parallelism wants inter-source overlap too.
	Parallelism int
	// BatchSize overrides the executor's rows-per-batch (0 = default
	// 1024; 1 degenerates to row-at-a-time execution). Mainly for the
	// vectorization experiments.
	BatchSize int
	// NoSemiJoin disables semi-join reduction (shipping probe-side join
	// keys into filter-capable sources). It is a planning option: the
	// optimizer then hints no reduction, and the executor reduces exactly
	// the joins whose plan carries a hint.
	NoSemiJoin bool
	// MaxSemiJoinKeys caps how many distinct probe keys ship as an exact
	// IN-list before the executor switches to a bloom filter (0 = the
	// default, plan.DefaultSemiJoinKeyCap). Experiments raise it to
	// force key-list shipping at scales where bloom would normally win.
	MaxSemiJoinKeys int
	// Deadline bounds query execution (wall clock): remote fetches are
	// abandoned once it passes. Zero means no deadline.
	Deadline time.Duration
	// Retry re-runs transiently failed remote fetches with capped
	// exponential backoff charged in virtual time. Zero: one attempt.
	Retry exec.RetryPolicy
	// AllowPartial degrades instead of failing when a source stays down
	// after retries: the failed source's rows are served from a replica
	// when one is fresh enough, otherwise dropped, and the Result is
	// marked Partial with the skipped sources listed.
	AllowPartial bool
	// ReplicaMaxAge caps how stale a replica may be to substitute for a
	// failed source. Zero accepts any age.
	ReplicaMaxAge time.Duration
	// OnSourceError, when non-nil, observes every failed fetch attempt
	// (including ones that are subsequently retried).
	OnSourceError func(source string, attempt int, err error)
	// NoPlanCache bypasses the plan cache: the statement is compiled
	// fresh and the compiled plan is not stored. Baselines and
	// plan-debugging use this.
	NoPlanCache bool
	// Trace records the query-scoped span tree — plan, per-operator exec
	// and per-source-fetch spans — into Result.Trace.
	Trace bool
	// Tenant names the admission-control bucket this query is charged
	// against. Empty (or an unknown name) runs under the "default" tenant.
	// Ignored while admission control is disabled.
	Tenant string
	// Adaptive enables adaptive query processing: planning blends the
	// feedback store's observed cardinalities into its estimates, executed
	// fetches feed the store back, and a mid-query cardinality tripwire may
	// re-optimize the plan at a batch boundary (Result.ReplanCount).
	// DefaultQueryOptions sets it; a zero-value QueryOptions leaves it off,
	// which reproduces fully static planning and execution bit for bit.
	Adaptive bool
	// Explain records estimated-vs-observed rows per operator during
	// execution and renders them into Result.ExplainOutput afterwards —
	// post-execution estimate-quality inspection without full tracing.
	Explain bool
	// fragment marks a peer-shipped plan fragment (set by RunFragment,
	// not settable by clients): admission was already charged at the
	// coordinating node, so the peer executes it without re-entering its
	// own admission queue — otherwise every cross-shard query would hold
	// a coordinator slot while waiting for a second slot at the owner,
	// capping cluster capacity at one node's quota.
	fragment bool
}

// Result is a completed query.
type Result struct {
	Columns []string
	Kinds   []datum.Kind
	Rows    []datum.Row
	// Plan is the optimized plan that ran.
	Plan plan.Node
	// Network is the transfer accounting accumulated across all source
	// links during this query (meaningful when queries run serially).
	Network netsim.Metrics
	// Estimate is the optimizer's cost prediction for the plan.
	Estimate opt.PlanCost
	// Elapsed is wall-clock execution time (excludes planning).
	Elapsed time.Duration
	// PlanTime is how long planning took: lex, parse and normalize, cache
	// lookup, and compile on a miss.
	PlanTime time.Duration
	// CacheHit is true when the plan came from the plan cache rather
	// than a fresh compile.
	CacheHit bool
	// CatalogVersion is the catalog snapshot version the query planned
	// against.
	CatalogVersion uint64
	// Partial is true when AllowPartial dropped one or more failed
	// sources from the answer.
	Partial bool
	// SkippedSources names the sources whose rows are missing from a
	// partial answer.
	SkippedSources []string
	// ReplicaSources names the failed sources whose rows were served
	// from the replica instead of live.
	ReplicaSources []string
	// SourceErrors counts failed fetch attempts per source.
	SourceErrors map[string]int
	// Retries counts retry attempts per source.
	Retries map[string]int
	// ExecParallelism is the widest worker pool any operator actually ran
	// with (1 when execution was fully sequential).
	ExecParallelism int
	// BatchesProcessed counts the batches produced across all operators.
	BatchesProcessed int64
	// Prefetches counts the remote fetches and union inputs that ran on a
	// goroutine of their own to overlap a sibling (0 without Parallel).
	Prefetches int64
	// QueryID is the engine-unique ID the execution registered under (the
	// /queries endpoint lists running queries by this ID).
	QueryID uint64
	// Trace is the query's span tree, recorded when QueryOptions.Trace is
	// set: plan, per-operator exec and per-source-fetch spans.
	Trace *exec.Span
	// Tenant is the admission bucket the query ran under (empty while
	// admission control is disabled).
	Tenant string
	// QueueTime is how long the query waited in the admission queue before
	// it started executing (zero when admitted immediately or admission is
	// disabled).
	QueueTime time.Duration
	// ArenaBytes is the payload the query drew from its query-scoped
	// allocators, all recycled when it finished: its scratch (operators,
	// compiled expressions, batches) and, for a statement, its front-end
	// arena (AST, normalized parameters, the plan compiled in it). The
	// arena's token buffer and parser stacks are not counted. A plan run
	// through ExecuteCtx reports its scratch alone.
	ArenaBytes int64
	// ReplanCount is how many times the query re-optimized mid-execution
	// after a cardinality tripwire (0 on the static path and for queries
	// whose estimates held).
	ReplanCount int
	// EstimateErrors counts operators of the final execution whose actual
	// cardinality missed the estimate by 10x or more in either direction.
	// Only populated when the cardinality ledger ran (Adaptive or Explain).
	EstimateErrors int
	// ExplainOutput is the executed plan annotated with estimated-vs-
	// observed rows per operator, when QueryOptions.Explain was set.
	ExplainOutput string
}

// DefaultQueryOptions is the serving configuration — what QueryCtx runs
// under and what callers of QueryOptsCtx and PrepareOpts start from:
// parallel remote fetch and adaptive query processing on, every
// optimization enabled.
func DefaultQueryOptions() QueryOptions {
	return QueryOptions{Parallel: true, Adaptive: true}
}

// QueryCtx plans and executes a SQL statement under DefaultQueryOptions:
// cancellation and the context's deadline propagate to every batch pull,
// exchange worker, remote fetch, retry backoff and simulated transfer of
// the query.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	return e.QueryOptsCtx(ctx, sql, DefaultQueryOptions())
}

// QueryOptsCtx plans and executes a SQL statement under a caller context.
//
// Planning goes through the plan cache. The statement is lexed and its
// token key — the token stream with its literals masked — looked up: a
// plan stored with that key takes the literals straight from the tokens
// as its values, and the statement is never parsed. Otherwise it is
// parsed and normalized by extracting predicate constants into
// parameters, and the cache is consulted by the normalized text; a miss
// compiles and stores the plan under both keys. Either way the cached
// template runs with the constants as its values, so repeated queries
// differing only in constants compile once. IN and EXISTS subqueries are
// part of the plan, so their statements cache like any other. Statements
// with explicit placeholders and queries with NoPlanCache set compile
// fresh.
//
// On execution failure the returned *Result may be non-nil alongside the
// error: it carries no rows but preserves the fault ledger (SourceErrors,
// Partial, SkippedSources) and the trace, so callers can report what the
// query had done when it failed or was cancelled.
func (e *Engine) QueryOptsCtx(ctx context.Context, sql string, qo QueryOptions) (*Result, error) {
	st := e.state.Load()
	planStart := st.clock.Now()

	// Per-query arena: tokens, AST nodes, the statement's values and a
	// miss's compile all come from it, so a warm cached-hit execution is
	// near-zero-alloc in the front end. The single deferred PutArena covers
	// every exit path — parse/compile error, admission shed, cancellation,
	// success — and is safe because executeCtx joins all query goroutines
	// before returning, so nothing touches arena memory after release.
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)

	snap := e.catalog.Snapshot()
	cp, params, hit, err := e.statementPlan(st, ar, sql, qo, snap)
	if err != nil {
		return nil, err
	}
	return e.runStatement(ctx, st, ar, planStart, sql, cp, params, hit, snap, qo)
}

// statementPlan finds the plan template of a literal statement under
// snap, and the values to run it with. Through the plan cache, it serves
// the statement by its token key when the plan stored with that key is
// current and its literal map binds the tokens, and else parses and
// normalizes the statement and looks it up as cachedTemplate does. hit
// reports a cache hit.
func (e *Engine) statementPlan(st *engineState, ar *sqlparse.Arena, sql string, qo QueryOptions, snap *catalog.Snapshot) (*compiledPlan, []datum.Datum, bool, error) {
	tokens, cacheable, err := ar.LexKey(sql)
	if err != nil {
		return nil, nil, false, err
	}
	if qo.NoPlanCache || !cacheable {
		cp, err := e.compile(st, ar, sql, qo, snap)
		return cp, nil, false, err
	}
	if ent, ok := e.plans.PeekAlt(tokens, st.planKey("", qo)); ok {
		cp := ent.Value().(*compiledPlan)
		if cp.current(st, qo, snap) {
			if params, ok := ar.BindLiterals(cp.lits); ok {
				e.plans.Hit(ent)
				return cp, params, true, nil
			}
		}
	}
	sel, err := sqlparse.ParseLexed(ar, sql)
	if err != nil {
		return nil, nil, false, err
	}
	params, _ := sqlparse.ExtractParamsIn(ar, sel) // LexKey found no placeholder
	cp, hit, err := e.cachedTemplate(st, ar, ar.CacheKeys(sel), qo, snap)
	return cp, params, hit, err
}

// runStatement is the back half every statement — literal or prepared —
// goes through on its way to executeCtx: run the plan template cp with the
// values params, and stamp the planning facts on the Result. st is the
// engine state and snap the catalog snapshot the caller planned under,
// and hit whether cp came from the plan cache. label is what the in-flight
// registry shows for the query. planStart is when the caller began
// planning (lexing, parsing, normalizing); ar is the caller's per-query
// arena, which the values live in and which the caller releases after
// this returns.
//
// Every statement runs the template itself: its operators read the values
// from the query scratch, and so do its sources and its peers. A hit also
// runs with the slots its sources keep their prepared fragments in; a
// plan that has just compiled runs with none.
func (e *Engine) runStatement(ctx context.Context, st *engineState, ar *sqlparse.Arena, planStart time.Time, label string, cp *compiledPlan, params []datum.Datum, hit bool, snap *catalog.Snapshot, qo QueryOptions) (*Result, error) {
	if cp.nParams > len(params) {
		return nil, &plan.ParamError{Index: cp.nParams, Bound: len(params)}
	}
	tb := binding{params: params}
	if hit {
		tb.frags = cp.fragments()
	}
	planTime := st.clock.Since(planStart)

	res, err := e.executeCtx(ctx, st, cp.tmpl, tb, qo, label, planTime, cp.cost)
	if res != nil {
		res.PlanTime = planTime
		res.CacheHit = hit
		res.CatalogVersion = snap.Version()
		res.ArenaBytes += ar.Bytes()
	}
	return res, err
}

// binding is what a plan runs with: the statement's values, and what is
// prepared for the cached plan (nil for a plan that has just compiled, and
// before its second reuse). The zero binding runs a plan that holds no
// parameter.
type binding struct {
	params []datum.Datum
	frags  *exec.Fragments
}

// Plan parses, reformulates and optimizes a statement without running it.
// It always compiles fresh (no cache) against one catalog snapshot, and
// contacts no source: subqueries are planned with the rest of the
// statement. A context already done returns its error before any work.
func (e *Engine) Plan(ctx context.Context, sql string, qo QueryOptions) (plan.Node, error) {
	return e.plan(ctx, e.state.Load(), sql, qo)
}

// plan is Plan under an already-loaded engine state. It compiles in a
// pooled arena and returns the plan's retained heap copy.
func (e *Engine) plan(ctx context.Context, st *engineState, sql string, qo QueryOptions) (plan.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	cp, err := e.compile(st, ar, sql, qo, e.catalog.Snapshot())
	if err != nil {
		return nil, err
	}
	return cp.tmpl, nil
}

// ExecuteCtx runs an optimized plan under a caller context, annotated and
// costed under the environment it executes in. Like QueryOptsCtx, a
// non-nil *Result may accompany an execution error; a plan holding a
// placeholder fails with a *plan.ParamError before any fetch, found by
// binding it no values.
func (e *Engine) ExecuteCtx(ctx context.Context, p plan.Node, qo QueryOptions) (*Result, error) {
	if _, err := plan.BindParams(p, nil); err != nil {
		return nil, err
	}
	st := e.state.Load()
	p, cost := opt.Annotate(p, st.planEnv(qo))
	return e.executeCtx(ctx, st, p, binding{}, qo, "", 0, cost)
}

// executeCtx is the single execution path: it derives the query's context
// (deadline, cancel handle), registers the query in the in-flight
// registry, and runs the plan with every leaf observing that context.
// p runs with the values and slots tb holds (see binding). planTime
// positions trace spans relative to query start (planning happened
// immediately before this call). est is the optimizer's cost prediction,
// computed by the caller (once per cached template, not per execution).
func (e *Engine) executeCtx(ctx context.Context, st *engineState, p plan.Node, tb binding, qo QueryOptions, sql string, planTime time.Duration, est opt.PlanCost) (*Result, error) {
	before := st.linkTotals()
	clock := st.clock
	start := clock.Now()
	if qo.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, qo.Deadline)
		defer cancel()
	}
	// Query-scoped exec scratch: batch containers and projected datums,
	// including those of remote subtrees executed inside source wrappers
	// (which pick it up from the context), come from this pooled
	// allocator and are recycled on return. Release is safe on every exit
	// path because all query goroutines join before executeCtx returns,
	// and the rows leave by a block copy: to the heap, or for a peer
	// fragment into the coordinator's scratch (it rides ctx), to die with
	// the coordinator's query. The fragment runs in a scratch of its own:
	// in the coordinator's, WaitBorrowers would wait on its own prefetch.
	var out *exec.Scratch
	if qo.fragment {
		out = exec.ScratchFrom(ctx)
	}
	scratch := exec.GetScratch()
	defer exec.PutScratch(scratch)
	scratch.SetTemplate(tb.params, tb.frags)
	ctx = exec.WithScratch(ctx, scratch)

	ctx, q := e.beginQuery(ctx, clock, sql)
	defer e.endQuery(q)

	// Admission: acquire the tenant's slot (possibly waiting in its FIFO
	// queue) before any execution work. CancelQuery on a queued query
	// cancels the derived ctx, which removes the waiter from the queue —
	// no quota is leaked. Release is nil-safe, so the deferred call covers
	// the admission-disabled path too. Peer-shipped fragments skip the
	// queue entirely: they were admitted at their coordinating node, and
	// load control for a cluster happens at the entry nodes.
	var slot *AdmissionSlot
	if !qo.fragment {
		var admitErr error
		slot, admitErr = st.admission.Acquire(ctx, qo.Tenant, clock)
		if admitErr != nil {
			slot.Release()
			return nil, admitErr
		}
	}
	defer slot.Release()

	// One immutable view of the federation for the whole execution: a
	// source registered or dropped mid-query cannot change which sources
	// this query talks to.
	rt := &queryRuntime{st: st, ctx: ctx, slot: slot}
	rt.opts = rt.execOptions(qo)
	rt.opts.Scratch = scratch
	rt.opts.Prepared = tb.frags.Mediator()
	if gov := st.governor; gov != nil && slot != nil {
		// Under contention every running query's exchange worker share
		// shrinks in proportion to its tenant's priority weight —
		// backpressure degrades parallelism before it degrades admission.
		ticket := gov.Register(slot.Priority())
		defer ticket.Close()
		rt.opts.Governor = ticket
	}
	stats := &rt.stats // rides the runtime's allocation
	rt.opts.Stats = stats
	if qo.Trace {
		rt.tracer = exec.NewQueryTracer(clock)
		rt.opts.Tracer = rt.tracer
	}
	// The per-operator ledger is the one record explain output, the
	// trace's operator spans and adaptive feedback all read: on whenever
	// any of them is asked for, far lighter than the span tree it feeds.
	// Its records carry the estimates and feedback streams the plan was
	// costed from; adaptive and explain queries feed them to the store.
	// The same ledger instance is Reset between re-plan attempts so the
	// final attempt's counts stand alone.
	var led *exec.CardLedger
	if qo.Adaptive || qo.Explain || qo.Trace {
		led = exec.GetCardLedger()
		defer exec.PutCardLedger(led)
		rt.opts.Cards = led
	}
	rt.learns = qo.Adaptive || qo.Explain
	if qo.Adaptive {
		rt.opts.Replan = exec.ReplanPolicy{Factor: ReplanFactor, MinRows: ReplanMinRows}
	}

	var rows []datum.Row
	var err error
	replans := 0
	for {
		var it exec.BatchIterator
		it, err = exec.BuildBatch(ctx, p, rt, rt.opts)
		if err == nil {
			rows, err = exec.DrainBatchesScratch(it, scratch)
		}
		if err == nil {
			// Result rows may alias this query's scratch and storage heaps
			// (zero-copy source snapshots); block-copy so callers own — and
			// may freely mutate — everything reachable from Result.Rows.
			rows = exec.CloneRows(out, rows)
			break
		}
		var re *exec.ReplanError
		if !qo.Adaptive || !errors.As(err, &re) {
			break
		}
		// Mid-query re-plan: the drain aborted at a batch boundary before
		// any row reached the caller, so re-executing from scratch cannot
		// change the answer — only the plan that produces it. Join the
		// aborted attempt's stragglers (abandoned prefetches run their
		// fetch to completion and would otherwise record into the next
		// attempt's ledger), feed its observed cardinalities into the
		// feedback store, re-optimize against the now-corrected estimates,
		// and start over. The extra network spend stays visible: link
		// accounting spans all attempts.
		scratch.WaitBorrowers()
		st.absorbLedger(led)
		led.Reset()
		if replans >= MaxReplans {
			// Budget exhausted: a workload the estimator cannot model even
			// after feedback (a tripwire that re-fires on the re-optimized
			// plan). Disarm it and run the current plan to completion — a
			// plan costed from fiction still computes the right answer.
			rt.opts.Replan = exec.ReplanPolicy{}
			continue
		}
		replans++
		// The re-planned template runs with the same values: no
		// signature or selectivity the optimizer reads depends on one.
		p = opt.Reoptimize(p, st.planEnv(qo), optimizerOptions(qo))
	}
	// The ledger's records are written lock-free by whichever goroutine
	// pulls each operator, so nothing below may read it — to absorb, to
	// explain, to build the trace — until the final attempt's stragglers
	// have joined. That holds on the error and cancel paths too: a failed
	// query still returns its trace. The join is also what lets the
	// deferred slot.Release settle the tenant's memory: a straggler still
	// holds its operators' batch charges and shrinks them when it closes,
	// which must not happen after Release has written the residual off.
	scratch.WaitBorrowers()
	estErrors := 0
	if rt.learns && err == nil {
		estErrors = st.absorbLedger(led)
	}
	after := st.linkTotals()
	after.Sub(before)

	cols := p.Columns()
	res := &Result{
		Columns:  make([]string, len(cols)),
		Kinds:    make([]datum.Kind, len(cols)),
		Rows:     rows,
		Plan:     p,
		Network:  after,
		Estimate: est,
		Elapsed:  clock.Since(start),

		ExecParallelism:  stats.MaxParallelism(),
		BatchesProcessed: stats.Batches(),
		Prefetches:       stats.Prefetches(),
		QueryID:          q.ID(),
		Tenant:           slot.Tenant(),
		QueueTime:        slot.QueueTime(),
		ArenaBytes:       scratch.Bytes(),
		ReplanCount:      replans,
		EstimateErrors:   estErrors,
	}
	if qo.Explain && err == nil {
		res.ExplainOutput = renderExplain(p, led, replans, tb.params)
	}
	for i, c := range cols {
		res.Columns[i] = c.Name
		res.Kinds[i] = c.Kind
	}
	rt.faults.fill(res)
	if rt.tracer != nil {
		res.Trace = rt.tracer.Finish(p, led, planTime, renderValues(tb.params))
	}
	if err != nil {
		res.Rows = nil
		return res, err
	}
	return res, nil
}

// Explain returns the optimized plan rendering plus, for every Remote
// subtree, the SQL the wrapper would receive. Like Plan, it runs nothing
// and contacts no source.
func (e *Engine) Explain(ctx context.Context, sql string, qo QueryOptions) (string, error) {
	st := e.state.Load()
	p, err := e.plan(ctx, st, sql, qo)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(plan.Explain(p))
	plan.Walk(p, func(n plan.Node) {
		r, ok := n.(*plan.Remote)
		if !ok {
			return
		}
		if pushSQL, err := federation.Deparse(r.Child); err == nil {
			fmt.Fprintf(&b, "-- pushdown @%s: %s\n", r.Source, pushSQL)
		}
	})
	cost := opt.Cost(p, st.planEnv(qo))
	fmt.Fprintf(&b, "-- estimate: rows=%d shipped=%dB network=%s cpuRows=%d\n",
		cost.Rows, cost.Shipped, cost.Network, cost.CPURows)
	return b.String(), nil
}

// ExplainAnalyze plans AND executes the statement, returning the plan
// annotated with the optimizer's estimate and the observed row count of
// every operator plus the network accounting — the tool §8 asks for when
// it calls for "query execution-time prediction" work: predicted vs
// actual, side by side. It is QueryOptsCtx compiling fresh with the
// per-operator ledger on, so it runs under the same admission, breakers,
// retries and options as any other query; executeCtx renders the ledger
// into Result.ExplainOutput after the final attempt's goroutines have
// joined and before the ledger is recycled.
func (e *Engine) ExplainAnalyze(ctx context.Context, sql string, qo QueryOptions) (string, error) {
	qo.Explain, qo.NoPlanCache = true, true
	res, err := e.QueryOptsCtx(ctx, sql, qo)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(res.ExplainOutput)
	fmt.Fprintf(&b, "-- actual: rows=%d shipped=%dB trips=%d simTime=%s\n",
		len(res.Rows), res.Network.BytesShipped, res.Network.RoundTrips, res.Network.SimTime)
	fmt.Fprintf(&b, "-- estimated: rows=%d shipped=%dB network=%s\n",
		res.Estimate.Rows, res.Estimate.Shipped, res.Estimate.Network)
	return b.String(), nil
}

// --- opt.Env plumbing ---

// engineEnv is the static planning environment: one engine state, so a
// whole optimization pass costs against one set of sources and breakers.
type engineEnv struct{ st *engineState }

func (env engineEnv) Caps(source string) federation.Caps {
	if src, ok := env.st.source(source); ok {
		return src.Capabilities()
	}
	return federation.ScanOnly()
}

func (env engineEnv) Link(source string) *netsim.Link {
	if src, ok := env.st.source(source); ok {
		return src.Link()
	}
	return nil
}

// Available implements opt.AvailabilityEnv: a source whose circuit
// breaker is open is treated as unavailable by the optimizer.
func (env engineEnv) Available(source string) bool {
	return env.st.sourceAvailable(source)
}

func (env engineEnv) Stats(source, table string) *schema.TableStats {
	if src, ok := env.st.source(source); ok {
		if st, ok := src.Catalog().Stats(table); ok {
			return st
		}
	}
	return nil
}

// linkTotals sums metrics across all source links.
func (s *engineState) linkTotals() netsim.Metrics {
	var total netsim.Metrics
	for _, src := range s.sources {
		total.Add(src.Link().Metrics())
	}
	return total
}

// ErrNotifyUnsupported is what Subscribe's error wraps when the source has
// no change notifications at all (as opposed to a subscription that failed).
var ErrNotifyUnsupported = errors.New("change notification not supported")

// Subscribe registers a change callback on a source table — the mediator
// face of §7's generated Notify methods. It errors, wrapping
// ErrNotifyUnsupported, when the source does not support notifications.
func (e *Engine) Subscribe(source, table string, fn func(storage.Change)) (cancel func(), err error) {
	src, ok := e.Source(source)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", source)
	}
	n, ok := src.(federation.Notifying)
	if !ok {
		return nil, fmt.Errorf("core: source %s: %w", source, ErrNotifyUnsupported)
	}
	return n.SubscribeTable(table, fn)
}

// DependencySubscribe plans the given SQL and subscribes fn to every base
// table the plan reads; fn fires whenever any of them changes. The returned
// cancel detaches all subscriptions. This turns a view definition into its
// own change feed — §7: "It should be possible to generate Notify methods
// automatically." The context bounds the planning step.
func (e *Engine) DependencySubscribe(ctx context.Context, sql string, fn func(storage.Change)) (cancel func(), err error) {
	p, err := e.Plan(ctx, sql, QueryOptions{})
	if err != nil {
		return nil, err
	}
	type dep struct{ source, table string }
	seen := map[dep]bool{}
	var cancels []func()
	var subErr error
	plan.Walk(p, func(n plan.Node) {
		if subErr != nil {
			return
		}
		s, ok := n.(*plan.Scan)
		if !ok || s.Source == "" {
			return
		}
		d := dep{s.Source, s.Table}
		if seen[d] {
			return
		}
		seen[d] = true
		c, err := e.Subscribe(s.Source, s.Table, fn)
		if err != nil {
			// Sources without notification support are skipped;
			// the caller still gets feeds from the ones that have
			// it.
			if errors.Is(err, ErrNotifyUnsupported) {
				return
			}
			subErr = err
			return
		}
		cancels = append(cancels, c)
	})
	if subErr != nil {
		for _, c := range cancels {
			c()
		}
		return nil, subErr
	}
	return func() {
		for _, c := range cancels {
			c()
		}
	}, nil
}

// ResetMetrics zeroes the accounting on every source link.
func (e *Engine) ResetMetrics() {
	for _, s := range e.state.Load().sources {
		s.Link().Reset()
	}
}

// NetworkTotals returns the summed link metrics.
func (e *Engine) NetworkTotals() netsim.Metrics { return e.state.Load().linkTotals() }

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/workload"
)

// queryOpts is what Engine.Query, QueryCtx and Prepare run under: the
// configuration users get, and the one this benchmark guards.
var queryOpts = core.QueryOptions{Parallel: true, Adaptive: true}

// naiveOpts drives the reference engine: no plan cache, every optimizer
// ablation on, sequential, static. It shares nothing with the measured
// path beyond the parser, the executor's operators and the sources.
var naiveOpts = core.QueryOptions{
	NoPlanCache: true,
	NoSemiJoin:  true,
	Parallelism: 1,
	Optimizer: opt.Options{
		NoFilterPushdown:  true,
		NoProjectionPrune: true,
		NoJoinReorder:     true,
		NoRemotePushdown:  true,
		NoSemiJoin:        true,
	},
}

// fixture is one workload's system under test plus its reference.
type fixture struct {
	w   *workloadSpec
	ctx context.Context
	rng *rand.Rand
	rec *recorder

	// fed holds the raw sources; fed.Engine over them is the reference.
	fed *workload.CRMFederation
	// engine is where queries enter: the single mediator, or the cluster
	// node that owns crm.
	engine  *core.Engine
	cluster *cluster.Cluster // nil on single-engine workloads

	// floorShift (0..3, drawn from the seed) is added to the amount floors
	// of the three fixed-pool workloads. Their rounds are permutations of a
	// fixed multiset, so without it bytes shipped and virtual time per query
	// would read the same under every seed; with it they differ in the
	// fourth digit and still repeat exactly for one seed, however many
	// rounds a run fits in.
	floorShift int

	stmts map[string]*stmt
	pool  []*stmt // w.pool's statements; nil on ad-hoc workloads

	attempted int // queries issued so far
	failed    int // of those, errored or answered wrongly
	firstFail string
}

// buildFixture assembles the sources, the traced engine (or cluster) over
// them and the reference engine.
func buildFixture(ctx context.Context, w *workloadSpec, seed int64) (*fixture, error) {
	cfg := workload.DefaultCRM()
	cfg.Customers = w.customers
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		return nil, err
	}
	view, ok := fed.Engine.Catalog().View("customer360")
	if !ok {
		return nil, fmt.Errorf("bench: CRM fixture has no customer360 view")
	}
	fx := &fixture{
		w:     w,
		ctx:   ctx,
		rng:   rand.New(rand.NewSource(seed)),
		rec:   newRecorder(),
		fed:   fed,
		stmts: make(map[string]*stmt),
	}
	fx.floorShift = fx.rng.Intn(4)
	if w.pool != nil {
		fx.pool = w.pool(fx)
	}
	newEngine := func(int) (*core.Engine, error) {
		e := core.New()
		for _, s := range fed.Sources() {
			if err := e.Register(tracedSource{Source: s, rec: fx.rec}); err != nil {
				return nil, err
			}
		}
		if err := e.DefineView(view.Name, view.SQL); err != nil {
			return nil, err
		}
		return e, nil
	}
	if w.nodes <= 1 {
		fx.engine, err = newEngine(0)
		return fx, err
	}

	// As in E18: pick the first ring seed that puts crm and billing on
	// different nodes, and enter at the owner of crm so the billing side
	// of every join crosses the inter-node link.
	ccfg := cluster.Config{Nodes: w.nodes}
	for ; ccfg.Seed < 256; ccfg.Seed++ {
		o := cluster.Owners(ccfg, "crm", "billing")
		if o[0] != o[1] {
			break
		}
	}
	c, err := cluster.New(ccfg, newEngine)
	if err != nil {
		return nil, err
	}
	if c.Owner("crm") == c.Owner("billing") {
		return nil, fmt.Errorf("bench: no ring seed splits crm and billing over %d nodes", w.nodes)
	}
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		n.Engine().SetFetchRouter(tracedRouter{FetchRouter: n, rec: fx.rec})
	}
	fx.cluster = c
	fx.engine = c.Node(c.Owner("crm")).Engine()
	return fx, nil
}

// intern returns the fixture's one stmt for sql. Interned statements have
// no ORDER BY.
func (fx *fixture) intern(sql string) *stmt {
	if s, ok := fx.stmts[sql]; ok {
		return s
	}
	s := &stmt{sql: sql}
	fx.stmts[sql] = s
	return s
}

// reference fills s.want from the naive reference engine. It is only ever
// called outside a round's measurement window: the reference shares the
// source links with the engine under test.
func (fx *fixture) reference(s *stmt) error {
	if s.want != nil {
		return nil
	}
	res, err := fx.fed.Engine.QueryOptsCtx(fx.ctx, s.sql, naiveOpts)
	if err != nil {
		return fmt.Errorf("reference engine: %s: %w", s.sql, err)
	}
	s.want = &answer{rows: len(res.Rows), digest: digestRows(res.Rows, s.ordered)}
	return nil
}

func (fx *fixture) fail(format string, args ...any) {
	fx.failed++
	if fx.firstFail == "" {
		fx.firstFail = fmt.Sprintf(format, args...)
	}
}

// netTotals sums transfer accounting over the source links and, apart,
// over the inter-node links.
func (fx *fixture) netTotals() (sources, inter netsim.Metrics) {
	for _, s := range fx.fed.Sources() {
		sources.Add(s.Link().Metrics())
	}
	if fx.cluster != nil {
		inter = fx.cluster.InterNodeTotals()
	}
	return sources, inter
}

// setupStats is what one set-up cost.
type setupStats struct {
	seconds  float64
	heapLive float64 // MB the fixture keeps live after warm-up
}

// setUp builds a fixture, computes the reference answers of its statement
// pool and runs the verified warm-up. Nothing it does is charged to a
// measured round.
func setUp(ctx context.Context, w *workloadSpec, seed int64) (*fixture, setupStats, error) {
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := netsim.Wall.Now()

	fx, err := buildFixture(ctx, w, seed)
	if err != nil {
		return nil, setupStats{}, err
	}
	for _, s := range fx.pool {
		if err := fx.reference(s); err != nil {
			return nil, setupStats{}, err
		}
	}
	warm := w.round(fx)[:w.warmCycles*w.perCycle]
	if _, err := fx.runRound(warm, 1); err != nil {
		return nil, setupStats{}, err
	}
	st := setupStats{seconds: netsim.Wall.Since(start).Seconds()}

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	st.heapLive = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	return fx, st, nil
}

// digestRows folds a result into 64 bits without allocating (datum.Hash
// allocates per value, which would show in allocs_per_op on a 14k-row
// result). Ordered results chain row hashes; unordered ones add them.
func digestRows(rows []datum.Row, ordered bool) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var total uint64 = offset
	for _, r := range rows {
		h := uint64(offset)
		for _, d := range r {
			switch d.Kind() {
			case datum.KindNull:
				h = (h ^ 0xff) * prime
			case datum.KindString:
				s := d.Str()
				for i := 0; i < len(s); i++ {
					h = (h ^ uint64(s[i])) * prime
				}
				h = (h ^ 0xfe) * prime
			case datum.KindBool:
				if d.Bool() {
					h ^= 1
				}
				h *= prime
			case datum.KindTime:
				h = (h ^ uint64(d.Time().UnixNano())) * prime
			default:
				// INT and FLOAT hash through one image, as datum.Compare
				// equates them.
				f, _ := d.AsFloat()
				h = (h ^ math.Float64bits(f)) * prime
			}
		}
		if ordered {
			total = (total ^ h) * prime
		} else {
			total += h
		}
	}
	return total
}

// durations in the two units the metrics use.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

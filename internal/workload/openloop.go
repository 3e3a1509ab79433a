package workload

// Open-loop load generation for the admission-control experiments (E16).
// A closed-loop driver (N clients, each issuing the next query when the
// previous answers) self-throttles: when the engine slows down, offered
// load drops with it, hiding overload. An open loop issues queries on an
// arrival clock that does not care whether earlier queries finished — the
// production-shaped condition the paper's mediator must survive — so
// driving the arrival rate past saturation exposes the real tail: either
// bounded (admission control sheds the excess quickly) or unbounded
// (every queued query waits behind an ever-growing backlog).

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// TenantLoad is one tenant's traffic in an open-loop run.
type TenantLoad struct {
	// Tenant names the admission bucket the queries run under.
	Tenant string
	// Rate is the offered load in queries per second (exponential
	// inter-arrival times — a Poisson arrival process).
	Rate float64
	// SQL is the statement every arrival issues.
	SQL string
	// Options is the base QueryOptions; Tenant is overwritten per load.
	Options core.QueryOptions
}

// OpenLoopConfig drives one open-loop run.
type OpenLoopConfig struct {
	// Duration is how long arrivals are generated; outstanding queries
	// then drain to completion.
	Duration time.Duration
	// Seed makes the arrival processes deterministic.
	Seed int64
	// Loads is the per-tenant traffic mix.
	Loads []TenantLoad
	// MaxOutstanding caps in-flight queries at the client (0: 4096).
	// Arrivals past the cap are dropped and counted — an open loop must
	// never block its arrival clock, but an unprotected engine would
	// otherwise accumulate goroutines without bound.
	MaxOutstanding int
	// SampleEvery is the admission-stats sampling interval for queue-depth
	// tracking (0: 2ms).
	SampleEvery time.Duration
}

// TenantOutcome is one tenant's view of a finished run.
type TenantOutcome struct {
	Tenant    string
	Issued    int
	Completed int
	// Shed counts queries answered with a structured overload rejection.
	Shed int
	// Failed counts queries that errored for any other reason.
	Failed int
	// Dropped counts arrivals discarded at the client because
	// MaxOutstanding was reached (the engine never saw them).
	Dropped int
}

// OpenLoopReport summarizes a run. Latency percentiles cover every
// request the engine answered — completions, rejections and failures
// alike — because a client's tail is whatever answer arrives last,
// including the 429s.
type OpenLoopReport struct {
	Duration  time.Duration
	Issued    int
	Completed int
	Shed      int
	Failed    int
	Dropped   int
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	Max       time.Duration
	// MaxQueueDepth is the deepest summed admission queue observed by the
	// sampler (0 when admission is disabled).
	MaxQueueDepth int
	// PeakGoroutines is the highest goroutine count the sampler observed
	// during the run — the footprint overload actually costs an engine
	// that admits everything.
	PeakGoroutines int
	// MaxQueueTime is the longest admission wait any completed query
	// reported.
	MaxQueueTime time.Duration
	// GoroutineGrowth is runtime.NumGoroutine after drain minus before the
	// run — nonzero growth means the engine leaked workers under load.
	GoroutineGrowth int
	// Tenants is the per-tenant breakdown, in Loads order.
	Tenants []TenantOutcome
}

// ShedRate is the fraction of issued queries that were shed.
func (r *OpenLoopReport) ShedRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Issued)
}

// Target is what an open-loop run drives: a single mediator engine or a
// cluster coordinator that fans queries out across nodes. *core.Engine
// and *cluster.Cluster both implement it.
type Target interface {
	QueryOptsCtx(ctx context.Context, sql string, qo core.QueryOptions) (*core.Result, error)
	AdmissionStats() []core.TenantAdmissionStats
}

// RunOpenLoop drives the target with the configured per-tenant arrival
// processes for cfg.Duration, waits for outstanding queries to drain, and
// reports latency percentiles, shed counts, observed queue depth, and
// goroutine growth.
func RunOpenLoop(ctx context.Context, engine Target, cfg OpenLoopConfig) *OpenLoopReport {
	maxOut := cfg.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 4096
	}
	sampleEvery := cfg.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 2 * time.Millisecond
	}
	baseline := runtime.NumGoroutine()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		outcomes  = make([]TenantOutcome, len(cfg.Loads))
		maxQueued time.Duration
	)
	for i, l := range cfg.Loads {
		outcomes[i].Tenant = l.Tenant
	}

	// Queue-depth sampler: polls admission stats until the run drains.
	samplerDone := make(chan struct{})
	var sampler sync.WaitGroup
	maxDepth, peakG := 0, baseline
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-samplerDone:
				return
			case <-time.After(sampleEvery):
			}
			depth := 0
			for _, ts := range engine.AdmissionStats() {
				depth += ts.Queued
			}
			if depth > maxDepth {
				maxDepth = depth
			}
			if g := runtime.NumGoroutine(); g > peakG {
				peakG = g
			}
		}
	}()

	outstanding := make(chan struct{}, maxOut)
	var inflight sync.WaitGroup
	var arrivals sync.WaitGroup
	start := netsim.Wall.Now()
	for i := range cfg.Loads {
		i, load := i, cfg.Loads[i]
		if load.Rate <= 0 {
			continue
		}
		arrivals.Add(1)
		go func() {
			defer arrivals.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			qo := load.Options
			qo.Tenant = load.Tenant
			// Arrivals are scheduled on offsets from start, not by sleeping
			// one gap after another: a sleep overshoots its gap (timer
			// granularity, a busy CPU), and summed overshoots would cap the
			// offered rate below Rate. An arrival whose time has already
			// passed is issued at once.
			var at time.Duration
			for {
				at += time.Duration(rng.ExpFloat64() / load.Rate * float64(time.Second))
				if at >= cfg.Duration || ctx.Err() != nil {
					return
				}
				if ahead := at - netsim.Wall.Since(start); ahead > 0 {
					time.Sleep(ahead)
				}
				select {
				case outstanding <- struct{}{}:
				default:
					mu.Lock()
					outcomes[i].Issued++
					outcomes[i].Dropped++
					mu.Unlock()
					continue
				}
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					defer func() { <-outstanding }()
					issued := netsim.Wall.Now()
					res, err := engine.QueryOptsCtx(ctx, load.SQL, qo)
					lat := netsim.Wall.Since(issued)
					mu.Lock()
					defer mu.Unlock()
					outcomes[i].Issued++
					latencies = append(latencies, lat)
					switch {
					case err == nil:
						outcomes[i].Completed++
						if res.QueueTime > maxQueued {
							maxQueued = res.QueueTime
						}
					case core.IsOverload(err):
						outcomes[i].Shed++
					default:
						outcomes[i].Failed++
					}
				}()
			}
		}()
	}
	arrivals.Wait()
	inflight.Wait()
	close(samplerDone)
	sampler.Wait()
	elapsed := netsim.Wall.Since(start)

	// Let worker goroutines the runtime is still tearing down exit before
	// measuring growth.
	growth := 0
	for i := 0; i < 200; i++ {
		if growth = runtime.NumGoroutine() - baseline; growth <= 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep := &OpenLoopReport{
		Duration:        elapsed,
		MaxQueueDepth:   maxDepth,
		PeakGoroutines:  peakG,
		MaxQueueTime:    maxQueued,
		GoroutineGrowth: growth,
		Tenants:         outcomes,
	}
	for _, o := range outcomes {
		rep.Issued += o.Issued
		rep.Completed += o.Completed
		rep.Shed += o.Shed
		rep.Failed += o.Failed
		rep.Dropped += o.Dropped
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	rep.P50 = Percentile(latencies, 0.50)
	rep.P99 = Percentile(latencies, 0.99)
	rep.P999 = Percentile(latencies, 0.999)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	return rep
}

// Percentile returns the p-th percentile (0..1) of sorted samples.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/netsim"
)

// maxRoundTime aborts a run whose round hangs or crawls.
const maxRoundTime = 30 * time.Second

// minRounds is the fewest rounds a pass runs, however short its budget.
const minRounds = 6

// round is what one round measured. Latencies are per query and exclude
// everything the harness does between queries.
type round struct {
	ops       int
	busy      time.Duration     // Σ query latencies
	cycles    []time.Duration   // per cycle: Σ of its queries' latencies
	classes   [][]time.Duration // per query class (position in the cycle)
	cpu       time.Duration     // process user+sys over the round
	mallocs   uint64
	allocated uint64
	sources   netsim.Metrics // source links
	inter     netsim.Metrics // inter-node links

	// From core.Result, summed over the round's queries.
	planTime    time.Duration
	execTime    time.Duration
	replans     int
	batches     int64
	parallelism int
	resultRows  int64

	// Catalog churn (adhoc_churn only).
	churns    int
	churnTime time.Duration
}

func (r *round) qps() float64 { return float64(r.ops) / r.busy.Seconds() }

type pendingCheck struct {
	s      *stmt
	rows   int
	digest uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound issues the schedule's queries one after another — a closed loop
// with one client — and measures each. Every query's row count is checked
// against its reference when one is known; the row digest of every
// checkEvery-th cycle is checked too, after the round, so that the
// reference engine never runs inside the measurement window. Query spans
// are recorded when the fixture's recorder is on.
func (fx *fixture) runRound(sched []*stmt, checkEvery int) (*round, error) {
	w := fx.w
	traced := fx.rec.on.Load()
	nCycles := len(sched) / w.perCycle
	r := &round{
		cycles:  make([]time.Duration, nCycles),
		classes: make([][]time.Duration, w.perCycle),
	}
	for k := range r.classes {
		r.classes[k] = make([]time.Duration, 0, nCycles)
	}
	pending := make([]pendingCheck, 0, (nCycles/checkEvery+1)*w.perCycle)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	src0, inter0 := fx.netTotals()
	cpu0 := cpuTime()
	wall0 := netsim.Wall.Now()

	for c := 0; c < nCycles; c++ {
		check := c%checkEvery == 0
		for k := 0; k < w.perCycle; k++ {
			s := sched[c*w.perCycle+k]
			if w.churnEvery > 0 && fx.attempted%w.churnEvery == w.churnEvery-1 {
				if err := fx.churnCatalog(r); err != nil {
					return nil, err
				}
			}
			fx.attempted++

			ctx, id := fx.ctx, -1
			if traced {
				id = fx.rec.begin(spanQuery, -1)
				ctx = withSpan(ctx, id)
			}
			t0 := netsim.Wall.Now()
			res, err := fx.engine.QueryOptsCtx(ctx, s.sql, queryOpts)
			d := netsim.Wall.Since(t0)
			if traced {
				rows := 0
				if res != nil {
					rows = len(res.Rows)
				}
				fx.rec.end(id, rows)
			}
			r.ops++
			r.busy += d
			r.cycles[c] += d
			r.classes[k] = append(r.classes[k], d)
			if err != nil {
				fx.fail("%s: %v", s.sql, err)
				continue
			}
			r.planTime += res.PlanTime
			r.execTime += res.Elapsed
			r.replans += res.ReplanCount
			r.batches += res.BatchesProcessed
			r.parallelism += res.ExecParallelism
			r.resultRows += int64(len(res.Rows))

			if s.want != nil && len(res.Rows) != s.want.rows {
				fx.fail("%s: %d rows, reference has %d", s.sql, len(res.Rows), s.want.rows)
			} else if check {
				pending = append(pending, pendingCheck{s, len(res.Rows), digestRows(res.Rows, s.ordered)})
			}
		}
	}

	wall := netsim.Wall.Since(wall0)
	r.cpu = cpuTime() - cpu0
	src1, inter1 := fx.netTotals()
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocated = m1.TotalAlloc - m0.TotalAlloc
	src1.Sub(src0)
	inter1.Sub(inter0)
	r.sources, r.inter = src1, inter1
	if wall > maxRoundTime {
		return nil, fmt.Errorf("bench: %s round took %s (limit %s)", w.name, wall, maxRoundTime)
	}

	for _, p := range pending {
		if err := fx.reference(p.s); err != nil {
			return nil, err
		}
		if p.rows != p.s.want.rows || p.digest != p.s.want.digest {
			fx.fail("%s: %d rows digest %x, reference has %d rows digest %x",
				p.s.sql, p.rows, p.digest, p.s.want.rows, p.s.want.digest)
		}
	}
	return r, nil
}

// churnCatalog defines and drops a view no query reads. Both writes bump
// the catalog version, which retires every cached plan.
func (fx *fixture) churnCatalog(r *round) error {
	t0 := netsim.Wall.Now()
	err := fx.engine.DefineView("bench_churn", "SELECT id, name FROM crm.customers WHERE region = 'west'")
	fx.engine.DropView("bench_churn")
	r.churnTime += netsim.Wall.Since(t0)
	r.churns++
	return err
}

// stackDepths is the number of stack placements rounds and set-ups cycle
// through. How fast the engine's tight loops run depends on where the
// caller's frames happen to put the stack: 8 bytes off a 16-byte boundary
// the cluster workload's IN-list evaluation runs 15% slower, and the point
// lookup has slow placements of its own (README, "Stack placement"). Any
// change to a frame size above those loops moves the placement, so a run
// measures at several and the estimator takes the best.
const stackDepths = 4

// atStackDepth calls f with depth more frames of this function above it.
// A frame is an odd multiple of 8 bytes (the package test checks that), so
// successive depths alternate between the two alignments modulo 16.
//
//go:noinline
func atStackDepth(depth int, f func()) {
	if depth == 0 {
		f()
		return
	}
	var pad [16]byte
	pad[depth%len(pad)] = byte(depth)
	atStackDepth(depth-1, f)
	if pad[depth%len(pad)] != byte(depth) {
		panic("bench: stack padding overwritten")
	}
}

// runRounds repeats freshly drawn rounds until budget has passed, each at
// the next stack depth. With alternate set every second round records
// spans, at the depth of the untraced round before it, so that the two
// kinds sample the same stretch of machine time and the same placements
// and their ratio is the tracing overhead rather than the machine's drift.
// Each returned list holds at least minRounds rounds.
func (fx *fixture) runRounds(budget time.Duration, alternate bool) (plain, traced []*round, err error) {
	need := minRounds
	if alternate {
		need *= 2
	}
	start := netsim.Wall.Now()
	for n := 0; ; n++ {
		trace, depth := false, n
		if alternate {
			trace, depth = n%2 == 1, n/2
		}
		fx.rec.on.Store(trace)
		var r *round
		atStackDepth(depth%stackDepths, func() {
			r, err = fx.runRound(fx.w.round(fx), fx.w.checkEvery)
		})
		fx.rec.on.Store(false)
		if err != nil {
			return nil, nil, err
		}
		if trace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Stop when the next round would overshoot by more than it
		// undershoots.
		elapsed := netsim.Wall.Since(start)
		next := elapsed / time.Duration(n+1)
		if n+1 >= need && elapsed+next/2 >= budget {
			return plain, traced, nil
		}
	}
}

// quietest returns the best value f takes over the rounds: the highest if
// higher is better, the lowest otherwise. A neighbour on this shared host
// only ever takes time away, in bursts that mostly last longer than a
// round and shorter than a run, so a metric's best round is the one that
// saw the most of the machine. Every timing metric is computed per round
// and reported from its own quietest round; count metrics, which repeat
// almost exactly, use all rounds.
func quietest(rounds []*round, higher bool, f func(*round) float64) float64 {
	best := f(rounds[0])
	for _, r := range rounds[1:] {
		if v := f(r); (v > best) == higher {
			best = v
		}
	}
	return best
}

// percentile returns the nearest-rank p-quantile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedDurations(parts ...[]time.Duration) []time.Duration {
	var all []time.Duration
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// sum folds the rounds' counters into one.
func sum(rounds []*round) *round {
	t := &round{}
	for _, r := range rounds {
		t.ops += r.ops
		t.busy += r.busy
		t.cpu += r.cpu
		t.mallocs += r.mallocs
		t.allocated += r.allocated
		t.sources.Add(r.sources)
		t.inter.Add(r.inter)
		t.planTime += r.planTime
		t.execTime += r.execTime
		t.replans += r.replans
		t.batches += r.batches
		t.parallelism += r.parallelism
		t.resultRows += r.resultRows
		t.churns += r.churns
		t.churnTime += r.churnTime
	}
	return t
}

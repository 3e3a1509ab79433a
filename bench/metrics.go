package main

import (
	"sort"
	"time"

	"repro/internal/plancache"
)

// metric is one reported number. Names and units are the ones
// BENCHMARK.json lists; the test in this package holds the two together.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd computes what a user of the mediator sees. Each timing metric
// is computed per round and taken from its quietest round; counts, which
// repeat almost exactly, come from all rounds. Set-up time is the lower
// quartile of the run's set-ups (the second fastest of six), which alternate
// between the two stack alignments: the fastest but one at the better one.
func endToEnd(rounds []*round, setups []setupStats) []metric {
	all := sum(rounds)
	ops := float64(all.ops)

	secs, heaps := make([]float64, len(setups)), make([]float64, len(setups))
	for i, s := range setups {
		secs[i], heaps[i] = s.seconds, s.heapLive
	}
	sort.Float64s(secs)
	sort.Float64s(heaps)

	return []metric{
		{"qps", "1/s", quietest(rounds, true, (*round).qps)},
		{"p50_ms", "ms", quietest(rounds, false, func(r *round) float64 {
			return ms(percentile(sortedDurations(r.cycles), 0.50))
		})},
		{"cpu_ms_per_op", "ms", quietest(rounds, false, func(r *round) float64 {
			return ms(r.cpu) / float64(r.ops)
		})},
		{"allocs_per_op", "count", float64(all.mallocs) / ops},
		{"alloc_kb_per_op", "KB", float64(all.allocated) / 1024 / ops},
		{"ship_bytes_per_op", "B", float64(all.sources.BytesShipped+all.inter.BytesShipped) / ops},
		{"sim_ms_per_op", "ms", ms(all.sources.SimTime+all.inter.SimTime) / ops},
		{"heap_live_mb", "MB", heaps[len(heaps)/2]},
		{"setup_s", "s", secs[len(secs)/4]},
	}
}

// counters are the engine's own monotonic counters, read before and after
// the timed rounds.
type counters struct {
	plans      plancache.Stats
	catalog    uint64
	generation uint64
}

func (fx *fixture) counters() counters {
	return counters{
		plans:      fx.engine.PlanCacheStats(),
		catalog:    fx.engine.Catalog().Version(),
		generation: fx.engine.Feedback().Generation(),
	}
}

// perLayer computes the single-layer metrics of one pass of alternating
// rounds: timed are the untraced ones, traced the ones recorded into tr.
// The engine counters were read around the whole pass; fe is the
// front-end replay.
func perLayer(timed, traced []*round, before, after counters, tr traceTotals, fe replay) []metric {
	t, x := sum(timed), sum(traced)
	ops, tops := float64(t.ops), float64(x.ops)
	kops := (ops + tops) / 1000 // the counters saw both kinds of round

	lookups := float64(after.plans.Hits - before.plans.Hits + after.plans.Misses - before.plans.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(after.plans.Hits-before.plans.Hits) / lookups
	}
	churnUS := 0.0
	if t.churns > 0 {
		churnUS = us(t.churnTime) / float64(t.churns)
	}
	rowsPerResultRow := 0.0
	if x.resultRows > 0 {
		rowsPerResultRow = float64(tr.fetchRows) / float64(x.resultRows)
	}
	planUS := us(x.planTime) / tops

	// Tracing overhead: each traced round against the untraced round run
	// just before it, and the median of those ratios, so that the machine's
	// drift over the pass cancels.
	overhead := make([]float64, len(traced))
	for i, r := range traced {
		overhead[i] = timed[i].qps() / r.qps()
	}
	sort.Float64s(overhead)

	out := []metric{
		{"sqlparse.parse_us", "us", fe.parseUS},
		{"sqlparse.normalize_us", "us", fe.normalizeUS},
		{"sqlparse.arena_bytes_per_op", "B", fe.arenaBytes},
		{"plan.bind_us", "us", fe.bindUS},
		{"plan.build_us", "us", fe.buildUS},
		{"opt.optimize_us", "us", fe.optimizeUS},

		{"plancache.hit_ratio", "ratio", hitRatio},
		{"plancache.evictions_per_kop", "1/kop", float64(after.plans.Evictions-before.plans.Evictions) / kops},
		{"plancache.invalidations_per_kop", "1/kop", float64(after.plans.Invalidations-before.plans.Invalidations) / kops},
		{"plancache.drift_invalidations_per_kop", "1/kop", float64(after.plans.DriftInvalidations-before.plans.DriftInvalidations) / kops},
		{"catalog.define_view_us", "us", churnUS},
		{"catalog.version_bumps", "count", float64(after.catalog - before.catalog)},

		{"core.plan_us", "us", us(t.planTime) / ops},
		{"core.exec_us", "us", us(t.execTime) / ops},
		{"core.overhead_us", "us", us(t.busy-t.planTime-t.execTime) / ops},
		{"core.replans_per_kop", "1/kop", 1000 * float64(t.replans) / ops},
		{"feedback.generation_delta", "count", float64(after.generation - before.generation)},

		{"exec.mediator_us", "us", us(time.Duration(tr.querySelf))/tops - planUS},
		{"exec.batches_per_op", "count", float64(t.batches) / ops},
		{"exec.parallelism", "count", float64(t.parallelism) / ops},

		{"federation.fetch_us", "us", us(time.Duration(tr.fetchBusy)) / tops},
		{"federation.fetches_per_op", "count", float64(tr.fetches) / tops},
		{"federation.rows_per_op", "count", float64(tr.fetchRows) / tops},
		{"federation.rows_per_result_row", "ratio", rowsPerResultRow},

		{"netsim.round_trips_per_op", "count", float64(t.sources.RoundTrips+t.inter.RoundTrips) / ops},
		{"netsim.wire_bytes_per_op", "B", float64(t.sources.WireBytes+t.inter.WireBytes) / ops},
		{"netsim.failures", "count", float64(t.sources.Failures + t.inter.Failures)},

		{"cluster.route_us", "us", us(time.Duration(tr.routeSelf)) / tops},
		{"cluster.fragments_per_op", "count", float64(tr.routes) / tops},
		{"cluster.inter_wire_bytes_per_op", "B", float64(t.inter.WireBytes) / ops},
		{"cluster.inter_sim_ms_per_op", "ms", ms(t.inter.SimTime) / ops},
	}

	// Per-class medians keep a cycle of unlike queries legible: the
	// cluster cycle's IN-list query costs ten times its bloom queries.
	// These and the tail come from all untraced rounds, the machine's slow
	// phases included: they describe the pass, they are not compared.
	var cycles [][]time.Duration
	for _, r := range timed {
		cycles = append(cycles, r.cycles)
	}
	out = append(out, metric{"cycle.p95_ms", "ms", ms(percentile(sortedDurations(cycles...), 0.95))})
	for k, name := range []string{"core.class.q1.p50_ms", "core.class.q2.p50_ms", "core.class.q3.p50_ms"} {
		var parts [][]time.Duration
		for _, r := range timed {
			if k < len(r.classes) {
				parts = append(parts, r.classes[k])
			}
		}
		out = append(out, metric{name, "ms", ms(percentile(sortedDurations(parts...), 0.50))})
	}

	return append(out,
		metric{"trace.overhead_ratio", "ratio", overhead[len(overhead)/2]},
		metric{"trace.coverage_ratio", "ratio", float64(tr.querySelf+tr.childUnion) / float64(x.busy)},
		metric{"trace.orphan_spans", "count", float64(tr.orphanSpans)},
	)
}

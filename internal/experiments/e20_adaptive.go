package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/workload"
)

// RunE20 measures adaptive query processing on the stale-statistics
// workload: the static optimizer keeps full-relation shipping because the
// catalog lies to it; the adaptive path trips a mid-query cardinality
// tripwire on the first query, re-plans the remainder into a semi-join
// reduction, and every later query plans from the corrected (feedback-
// blended) estimates — while returning byte-identical answers.
func RunE20(ctx context.Context, scale Scale) (Table, error) {
	eventRows, queries := 4000, 8
	if scale == Full {
		eventRows, queries = 40000, 8
	}
	t := Table{
		ID:            "E20",
		Title:         "Adaptive query processing under stale statistics (static plans vs runtime-cardinality feedback)",
		Claim:         `§3 lists "adaptive query processing" among the query-processing challenges EII raised: source statistics are second-hand and stale by construction, so "the optimizer" must "revise its plan" from cardinalities observed at run time rather than trust the catalog`,
		ExpectedShape: "static planning ships the whole mis-estimated relation every query; adaptive trips a replan on query 1, switches to semi-join reduction, and ends >=5x cheaper in link time over the run — with byte-identical results",
		Columns:       []string{"mode", "queries", "replans", "shipped", "simTime", "vs-static"},
	}

	type outcome struct {
		rows    [][]datum.Row
		bytes   int64
		sim     time.Duration
		replans int
		drift   uint64
	}
	run := func(adaptive bool) (outcome, error) {
		var o outcome
		e, err := workload.BuildStaleStats(eventRows, false)
		if err != nil {
			return o, err
		}
		e.ResetMetrics()
		qo := core.QueryOptions{Parallel: true, Adaptive: adaptive}
		for i := 0; i < queries; i++ {
			res, err := e.QueryOptsCtx(ctx, workload.StaleStatsSQL, qo)
			if err != nil {
				return o, fmt.Errorf("E20 (adaptive=%v) query %d: %w", adaptive, i, err)
			}
			o.rows = append(o.rows, res.Rows)
			o.replans += res.ReplanCount
		}
		m := e.NetworkTotals()
		o.bytes, o.sim = m.BytesShipped, m.SimTime
		o.drift = e.PlanCacheStats().DriftInvalidations
		return o, nil
	}

	static, err := run(false)
	if err != nil {
		return t, err
	}
	adaptive, err := run(true)
	if err != nil {
		return t, err
	}

	// Invariants the tentpole promises: the replan fires, results match
	// byte for byte, and the adaptive run is at least 5x cheaper.
	if adaptive.replans < 1 {
		return t, fmt.Errorf("E20: adaptive run never replanned")
	}
	for q := range static.rows {
		if len(static.rows[q]) != len(adaptive.rows[q]) {
			return t, fmt.Errorf("E20: query %d row counts differ: static %d, adaptive %d",
				q, len(static.rows[q]), len(adaptive.rows[q]))
		}
		for i := range static.rows[q] {
			for c := range static.rows[q][i] {
				if datum.Compare(static.rows[q][i][c], adaptive.rows[q][i][c]) != 0 {
					return t, fmt.Errorf("E20: query %d row %d col %d differs", q, i, c)
				}
			}
		}
	}
	if static.sim < 5*adaptive.sim {
		return t, fmt.Errorf("E20: static %s vs adaptive %s — expected >=5x", static.sim, adaptive.sim)
	}

	t.Rows = append(t.Rows,
		[]string{"static", fmt.Sprintf("%d", queries), "0", fmtBytes(static.bytes),
			static.sim.Round(time.Millisecond).String(), "1.0x"},
		[]string{"adaptive", fmt.Sprintf("%d", queries), fmt.Sprintf("%d", adaptive.replans),
			fmtBytes(adaptive.bytes), adaptive.sim.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx cheaper", float64(static.sim)/float64(adaptive.sim))},
	)
	t.Notes = fmt.Sprintf(
		"events holds %d rows but its published stats claim 50; the first adaptive query pays the full fetch, trips the 10x cardinality tripwire at a batch boundary, re-plans into a ReduceRight semi-join, and re-executes (results byte-identical by assertion); the feedback generation bump drift-invalidated %d cached plan(s), so later queries compile straight to the reduced plan",
		eventRows, adaptive.drift)
	return t, nil
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/workload"
)

// e14Workloads are the three query shapes the batch/parallelism sweep
// drives, mirroring earlier experiments: E1's mediator-side filter+join,
// E6's mediated-view aggregation, and E7's three-source fan-out join.
var e14Workloads = []struct {
	name, sql string
	fanOut    bool // wants RealSleep links and no semi-join serialization
}{
	{name: "E1-filter-join", sql: workload.ReportJoinSQL},
	{name: "E6-view-agg", sql: workload.ReportAggSQL},
	{name: "E7-fan-out", sql: workload.FanOutSQL, fanOut: true},
}

func e14Fingerprint(rows []datum.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, d := range r {
			b.WriteString(d.Display())
			b.WriteByte(',')
		}
		b.WriteByte('|')
	}
	return b.String()
}

// RunE14 sweeps execution batch size and intra-query parallel degree over
// the E1/E6/E7 workloads. §3 (Bitton) names intra-query parallelism a
// critical EII performance factor; the vectorized engine adds the
// mediator-side half of that story: row-at-a-time (batch=1) versus
// vectorized (batch=1024) interpretation, sequential versus morsel-driven
// parallel operators. Every configuration's result is checked row-for-row
// identical to the sequential row-at-a-time baseline before its time is
// reported.
func RunE14(ctx context.Context, scale Scale) (Table, error) {
	customers := 2000
	batches := []int{1, 1024}
	degrees := []int{1, 8}
	iters := 2
	if scale == Full {
		customers = 8000
		batches = []int{1, 64, 1024}
		degrees = []int{1, 2, 8}
		iters = 5
	}
	t := Table{
		ID:            "E14",
		Title:         "Vectorized batches and morsel-driven parallelism (batch size x parallel degree)",
		Claim:         `§3: "critical EII performance factors will relate to ... its ability to (a) maximize parallelism in inter and intra query processing" and "(c) minimize the response time"`,
		ExpectedShape: "exec time falls as batch grows (fewer per-row interpreter round trips) and again as parallel degree grows; results stay byte-identical to sequential",
		Columns:       []string{"workload", "batch", "parallelism", "exec", "batches", "speedup"},
	}

	for _, w := range e14Workloads {
		fed, err := workload.CRMOf(customers)
		if err != nil {
			return t, err
		}
		engine := fed.Engine
		if w.fanOut {
			fed.BlockLinks(100 * time.Millisecond)
		}

		run := func(batch, degree int) (*core.Result, time.Duration, error) {
			qo := core.QueryOptions{
				BatchSize:   batch,
				Parallelism: degree,
				Parallel:    degree > 1,
			}
			if w.fanOut {
				// Semi-join reduction serializes join inputs; disable it
				// so the fan-out measures overlap, as in E7.
				qo.NoSemiJoin = true
			}
			var res *core.Result
			best := time.Duration(0)
			for i := 0; i < iters; i++ {
				r, err := engine.QueryOptsCtx(ctx, w.sql, qo)
				if err != nil {
					return nil, 0, err
				}
				if res == nil || r.Elapsed < best {
					res, best = r, r.Elapsed
				}
			}
			return res, best, nil
		}

		baseRes, baseTime, err := run(1, 1)
		if err != nil {
			return t, fmt.Errorf("E14 %s baseline: %w", w.name, err)
		}
		want := e14Fingerprint(baseRes.Rows)

		for _, batch := range batches {
			for _, degree := range degrees {
				res, exec := baseRes, baseTime
				if batch != 1 || degree != 1 {
					res, exec, err = run(batch, degree)
					if err != nil {
						return t, fmt.Errorf("E14 %s batch=%d par=%d: %w", w.name, batch, degree, err)
					}
				}
				if got := e14Fingerprint(res.Rows); got != want {
					return t, fmt.Errorf("E14 %s batch=%d par=%d: results diverge from sequential baseline (%d vs %d rows)",
						w.name, batch, degree, len(res.Rows), len(baseRes.Rows))
				}
				t.Rows = append(t.Rows, []string{
					w.name,
					fmt.Sprintf("%d", batch),
					fmt.Sprintf("%d", degree),
					exec.Round(10 * time.Microsecond).String(),
					fmt.Sprintf("%d", res.BatchesProcessed),
					ratio(float64(baseTime), float64(exec)),
				})
			}
		}
	}
	t.Notes = "every cell's rows were verified identical to the batch=1, parallelism=1 run before timing was recorded; fan-out rows include real link sleeps, so their speedup mixes fetch overlap with mediator parallelism"
	return t, nil
}

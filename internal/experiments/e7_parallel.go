package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunE7 reproduces §3's (Bitton) parallelism demand: "critical EII
// performance factors will relate to the distributed architecture of the
// EII engine and its ability to (a) maximize parallelism in inter and intra
// query processing". The same three-source fan-out query runs with remote
// fetches serialized and overlapped; links really block (RealSleep), so
// wall-clock time shows the overlap.
func RunE7(ctx context.Context, scale Scale) (Table, error) {
	latencies := []time.Duration{5 * time.Millisecond, 20 * time.Millisecond}
	if scale == Full {
		latencies = []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	}
	t := Table{
		ID:            "E7",
		Title:         "Sequential vs parallel remote fetch (three-source fan-out)",
		Claim:         `§3: "maximize parallelism in inter and intra query processing" — the exchange operator overlaps source round trips`,
		ExpectedShape: "parallel wall time approaches the slowest single link; sequential wall time approaches the sum of links; speedup grows with latency",
		Columns:       []string{"linkLatency", "sequential", "parallel", "speedup"},
	}
	for _, lat := range latencies {
		cfg := workload.DefaultCRM()
		cfg.Customers = 150
		cfg.LinkLatency = lat
		fed, err := workload.BuildCRM(cfg)
		if err != nil {
			return t, err
		}
		fed.BlockLinks(200 * time.Millisecond)
		timeRun := func(parallel bool) (time.Duration, error) {
			// Semi-join reduction deliberately serializes join inputs
			// (probe keys must arrive before the build side is
			// fetched), so it is disabled here to isolate the
			// exchange operator's overlap.
			elapsed := stopwatch(fed.Engine.Clock())
			_, err := fed.Engine.QueryOptsCtx(ctx, workload.FanOutSQL, core.QueryOptions{Parallel: parallel, NoSemiJoin: true})
			return elapsed(), err
		}
		seq, err := timeRun(false)
		if err != nil {
			return t, err
		}
		par, err := timeRun(true)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			lat.String(),
			seq.Round(time.Millisecond).String(),
			par.Round(time.Millisecond).String(),
			ratio(float64(seq), float64(par)),
		})
	}
	t.Notes = "wall-clock measurement; links block for their simulated transfer time"
	return t, nil
}

package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunE13 measures the query-lifecycle split under a templated concurrent
// workload: how much of each request is planning (parse, unfold views,
// optimize) versus execution, and what a version-keyed plan cache buys as
// client concurrency grows. The EII products the paper describes sat under
// portals that issue the same handful of query shapes with different
// constants — exactly the workload a plan cache serves.
func RunE13(ctx context.Context, scale Scale) (Table, error) {
	clients := []int{1, 8}
	perClient := 40
	if scale == Full {
		clients = []int{1, 2, 4, 8, 16, 32, 64}
		perClient = 100
	}
	t := Table{
		ID:            "E13",
		Title:         "Plan caching under templated concurrent load (compile-every-time vs cached plans)",
		Claim:         `§2 frames EII as answering live queries against federated sources; the products it surveys served portal/dashboard workloads — repeated query shapes with varying constants — where compilation cost is paid per request unless plans are reused`,
		ExpectedShape: "hit rate near 100% after warmup; planning share of wall time drops sharply with caching; cached QPS pulls ahead as concurrency grows",
		Columns:       []string{"clients", "mode", "qps", "avg(plan)", "avg(exec)", "planShare", "hitRate"},
	}

	for _, nc := range clients {
		for _, mode := range []struct {
			name    string
			noCache bool
		}{
			{"compile-every-time", true},
			{"cached", false},
		} {
			fed, err := workload.CRMOf(120)
			if err != nil {
				return t, err
			}
			engine := fed.Engine
			qo := core.QueryOptions{Parallel: false, NoPlanCache: mode.noCache}

			var planNS, execNS, queries, hits int64
			var wg sync.WaitGroup
			elapsed := stopwatch(engine.Clock())
			for c := 0; c < nc; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						res, err := engine.QueryOptsCtx(ctx, workload.PortalSQL(c*perClient+i), qo)
						if err != nil {
							continue
						}
						atomic.AddInt64(&planNS, int64(res.PlanTime))
						atomic.AddInt64(&execNS, int64(res.Elapsed))
						atomic.AddInt64(&queries, 1)
						if res.CacheHit {
							atomic.AddInt64(&hits, 1)
						}
					}
				}(c)
			}
			wg.Wait()
			wall := elapsed()
			if queries == 0 {
				return t, fmt.Errorf("E13: no queries succeeded")
			}
			qps := float64(queries) / wall.Seconds()
			avgPlan := time.Duration(planNS / queries)
			avgExec := time.Duration(execNS / queries)
			planShare := float64(planNS) / float64(planNS+execNS)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nc),
				mode.name,
				fmt.Sprintf("%.0f", qps),
				avgPlan.Round(100 * time.Nanosecond).String(),
				avgExec.Round(100 * time.Nanosecond).String(),
				fmt.Sprintf("%.1f%%", 100*planShare),
				fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(queries)),
			})
		}
	}
	t.Notes = "execution here runs against in-process simulated sources, so planning is a large fraction of request time — the regime where EII servers actually operated (network waits overlap across concurrent clients, compilation does not)"
	return t, nil
}

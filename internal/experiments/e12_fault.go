package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// RunE12 measures fault-tolerant federation under injected source
// failures: §7 argues integration contracts must cover "the obligations of
// each party", with availability as a canonical provider obligation — but a
// mediator over autonomous sources cannot assume they hold. The experiment
// sweeps a per-transfer failure rate over a three-source fan-out and
// compares naive execution (any failure kills the query), capped-backoff
// retry, and retry plus circuit breakers plus partial results.
func RunE12(ctx context.Context, scale Scale) (Table, error) {
	rates := []float64{0, 0.10, 0.30}
	trials := 25
	if scale == Full {
		rates = []float64{0, 0.05, 0.10, 0.20, 0.30}
		trials = 120
	}
	t := Table{
		ID:            "E12",
		Title:         "Fault tolerance under source failures (naive vs retry vs retry+breaker+partial)",
		Claim:         `§7 (Rosenthal): "One needs agreements that capture the obligations of each party in a formal language ... the provider may be obligated to provide data of a specified quality" — availability is such an obligation, and the mediator must degrade gracefully when a source breaks it`,
		ExpectedShape: "naive success collapses as failures rise; retry holds near-perfect success at moderate rates (paying latency); breakers+partial answers keep succeeding at high rates with reduced completeness",
		Columns:       []string{"failRate", "mode", "success", "p50(net)", "p99(net)", "complete", "fetchErrs"},
	}

	modes := []struct {
		name    string
		breaker core.BreakerConfig
		qo      core.QueryOptions
	}{
		{"naive", core.BreakerConfig{FailureThreshold: -1},
			core.QueryOptions{Parallel: true}},
		{"retry", core.BreakerConfig{FailureThreshold: -1},
			core.QueryOptions{Parallel: true,
				Retry: exec.RetryPolicy{Attempts: 4, BaseBackoff: 2 * time.Millisecond}}},
		{"retry+brk+partial", core.BreakerConfig{FailureThreshold: 5, OpenTimeout: 5 * time.Millisecond},
			core.QueryOptions{Parallel: true, AllowPartial: true,
				Retry: exec.RetryPolicy{Attempts: 4, BaseBackoff: 2 * time.Millisecond}}},
	}

	for _, rate := range rates {
		for _, m := range modes {
			cfg := workload.DefaultCRM()
			cfg.Customers = 40
			cfg.InvoicesPerCustomer = 2
			cfg.TicketsPerCustomer = 1
			fed, err := workload.BuildCRM(cfg)
			if err != nil {
				return t, err
			}
			// One row per entity across all three sources; losing a source
			// loses exactly its share of the answer.
			if err := fed.Engine.DefineView("directory", `
				SELECT id AS k FROM crm.customers
				UNION ALL SELECT cust_id AS k FROM billing.invoices
				UNION ALL SELECT cust_id AS k FROM support.tickets`); err != nil {
				return t, err
			}
			expected := float64(cfg.Customers * (1 + cfg.InvoicesPerCustomer + cfg.TicketsPerCustomer))
			fed.Engine.SetBreakerConfig(m.breaker)
			for i, name := range fed.Engine.Sources() {
				src, _ := fed.Engine.Source(name)
				src.Link().SetFaultProfile(&netsim.FaultProfile{
					Seed:        int64(100*rate) + int64(i),
					FailureRate: rate,
				})
			}

			qo := m.qo
			// OnSourceError fires from concurrent prefetch goroutines;
			// a plain counter would race under go test -race.
			var fetchErrs atomic.Int64
			qo.OnSourceError = func(string, int, error) { fetchErrs.Add(1) }
			var succeeded int
			var completeness float64
			sims := make([]time.Duration, 0, trials)
			for trial := 0; trial < trials; trial++ {
				before := fed.Engine.NetworkTotals()
				res, err := fed.Engine.QueryOptsCtx(ctx, "SELECT k FROM directory", qo)
				after := fed.Engine.NetworkTotals()
				after.Sub(before)
				sims = append(sims, after.SimTime)
				if err != nil {
					continue
				}
				succeeded++
				completeness += float64(len(res.Rows)) / expected
			}
			sort.Slice(sims, func(i, j int) bool { return sims[i] < sims[j] })

			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", rate*100),
				m.name,
				fmt.Sprintf("%.1f%%", 100*float64(succeeded)/float64(trials)),
				workload.Percentile(sims, 0.50).Round(100 * time.Microsecond).String(),
				workload.Percentile(sims, 0.99).Round(100 * time.Microsecond).String(),
				fmt.Sprintf("%.1f%%", 100*completeness/float64(trials)),
				fmt.Sprintf("%d", fetchErrs.Load()),
			})
		}
	}
	t.Notes = "latency is virtual network time per query (includes charged backoff); completeness averages rows returned over rows expected, counting failed queries as 0%"
	return t, nil
}

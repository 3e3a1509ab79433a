package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunE16 measures overload behaviour under open-loop, mixed-tenant load:
// §1 and §3 argue the mediator must stand between many concurrent
// consumers and fragile sources without collapsing when demand exceeds
// capacity. The experiment drives the CRM federation with Poisson
// arrivals at ~1x and 2x its measured saturation rate, with admission
// control off (the pre-E16 engine: every arrival admitted, backlog and
// tail latency unbounded) and on (per-tenant concurrency quotas, bounded
// FIFO queues, load shedding): bounded queues keep the tail bounded by
// converting excess load into fast structured rejections.
func RunE16(ctx context.Context, scale Scale) (Table, error) {
	cellDuration := 250 * time.Millisecond
	if scale == Full {
		cellDuration = 1500 * time.Millisecond
	}
	t := Table{
		ID:            "E16",
		Title:         "Admission control and load shedding under open-loop overload (no-admission vs per-tenant quotas)",
		Claim:         `§1: the mediator offers "a global view of a customer whose data is residing in multiple sources" to the whole customer-facing workforce at once — many concurrent consumers against capacity-limited sources, so the mediator itself must arbitrate who runs when demand exceeds capacity`,
		ExpectedShape: "without admission, 2x saturation rides on unbounded concurrency (peakG grows with the backlog); with admission, in-flight work is pinned at quota capacity, p999 stays bounded, and the excess is answered with fast structured rejections (shed%)",
		Columns:       []string{"load", "mode", "issued", "done", "shed", "p50", "p99", "p999", "maxQ", "peakG", "goro"},
	}

	// Measure the single-query service time once, on an identically-built
	// federation, to place the saturation point.
	eng, err := buildE16Engine(false)
	if err != nil {
		return t, err
	}
	const sql = "SELECT id, name, amount FROM customer360 WHERE id < 40"
	qo := core.QueryOptions{Parallel: true}
	service, err := serviceTime(ctx, eng, sql)
	if err != nil {
		return t, err
	}
	// Total concurrency under admission is 6 (gold 4 + bronze 2); the
	// aggregate saturation rate is capacity / service time.
	const capacity = 6
	satRate := capacity * float64(time.Second) / float64(service)

	for _, load := range []struct {
		name   string
		factor float64
	}{{"1x", 0.8}, {"2x", 2.0}} {
		for _, mode := range []struct {
			name      string
			admission bool
		}{{"none", false}, {"admission", true}} {
			eng, err := buildE16Engine(mode.admission)
			if err != nil {
				return t, err
			}
			rate := satRate * load.factor
			rep := workload.RunOpenLoop(ctx, eng, workload.OpenLoopConfig{
				Duration:       cellDuration,
				Seed:           416,
				MaxOutstanding: 512,
				Loads: []workload.TenantLoad{
					{Tenant: "gold", Rate: rate * 0.6, SQL: sql, Options: qo},
					{Tenant: "bronze", Rate: rate * 0.4, SQL: sql, Options: qo},
				},
			})
			t.Rows = append(t.Rows, []string{
				load.name, mode.name,
				fmt.Sprintf("%d", rep.Issued),
				fmt.Sprintf("%d", rep.Completed),
				fmt.Sprintf("%.0f%%", 100*rep.ShedRate()),
				rep.P50.Round(100 * time.Microsecond).String(),
				rep.P99.Round(100 * time.Microsecond).String(),
				rep.P999.Round(100 * time.Microsecond).String(),
				fmt.Sprintf("%d", rep.MaxQueueDepth),
				fmt.Sprintf("%d", rep.PeakGoroutines),
				fmt.Sprintf("%+d", rep.GoroutineGrowth),
			})
		}
	}
	t.Notes = fmt.Sprintf("open-loop Poisson arrivals (gold 60%% / bronze 40%%) over blocking links; measured service time %s, saturation ~%.0f qps; latency percentiles cover every answered request including rejections; goro is goroutine growth after drain", service.Round(10*time.Microsecond), satRate)
	return t, nil
}

// serviceTime measures the mean latency of one warm sequential query on
// the engine's clock: what the saturation rate is placed from.
func serviceTime(ctx context.Context, eng *core.Engine, sql string) (time.Duration, error) {
	const warm = 12
	elapsed := stopwatch(eng.Clock())
	for i := 0; i < warm; i++ {
		if _, err := eng.QueryCtx(ctx, sql); err != nil {
			return 0, err
		}
	}
	if service := elapsed() / warm; service > 0 {
		return service, nil
	}
	return time.Millisecond, nil
}

// blockingCRM builds the small CRM fleet the overload experiments (E16,
// and E18's scaling phase) drive: links linkLatency away that really
// block, so queued and in-flight work costs wall time.
func blockingCRM(linkLatency time.Duration) (*workload.CRMFederation, error) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	cfg.InvoicesPerCustomer = 2
	cfg.TicketsPerCustomer = 1
	cfg.LinkLatency = linkLatency
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		return nil, err
	}
	fed.BlockLinks(10 * time.Millisecond)
	return fed, nil
}

// admitGoldBronze turns on admission control with the two-tenant quota the
// overload experiments share: six slots in all, gold 4 + bronze 2.
func admitGoldBronze(engine *core.Engine) error {
	engine.EnableAdmission(core.AdmissionConfig{RetryAfter: 20 * time.Millisecond})
	for _, tc := range []core.TenantConfig{
		{Name: "gold", Priority: 3, MaxConcurrent: 4, MaxQueueDepth: 8},
		{Name: "bronze", Priority: 1, MaxConcurrent: 2, MaxQueueDepth: 4},
	} {
		if err := engine.DefineTenant(tc); err != nil {
			return err
		}
	}
	return nil
}

// buildE16Engine assembles the blocking CRM federation, optionally with
// the gold/bronze tenant quotas.
func buildE16Engine(admission bool) (*core.Engine, error) {
	fed, err := blockingCRM(time.Millisecond)
	if err != nil {
		return nil, err
	}
	if admission {
		if err := admitGoldBronze(fed.Engine); err != nil {
			return nil, err
		}
	}
	return fed.Engine, nil
}

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
	warm := 12
	start := eng.Clock().Now()
	for i := 0; i < warm; i++ {
		if _, err := eng.QueryCtx(ctx, sql); err != nil {
			return t, err
		}
	}
	service := eng.Clock().Since(start) / time.Duration(warm)
	if service <= 0 {
		service = time.Millisecond
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

// buildE16Engine assembles a small CRM federation whose links really
// block (RealSleep), optionally with the gold/bronze tenant quotas.
func buildE16Engine(admission bool) (*core.Engine, error) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	cfg.InvoicesPerCustomer = 2
	cfg.TicketsPerCustomer = 1
	cfg.LinkLatency = time.Millisecond
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range fed.Engine.Sources() {
		src, _ := fed.Engine.Source(name)
		src.Link().RealSleep = true
		src.Link().MaxSleep = 10 * time.Millisecond
	}
	if admission {
		fed.Engine.EnableAdmission(core.AdmissionConfig{RetryAfter: 20 * time.Millisecond})
		if err := fed.Engine.DefineTenant(core.TenantConfig{
			Name: "gold", Priority: 3, MaxConcurrent: 4, MaxQueueDepth: 8,
		}); err != nil {
			return nil, err
		}
		if err := fed.Engine.DefineTenant(core.TenantConfig{
			Name: "bronze", Priority: 1, MaxConcurrent: 2, MaxQueueDepth: 4,
		}); err != nil {
			return nil, err
		}
	}
	return fed.Engine, nil
}

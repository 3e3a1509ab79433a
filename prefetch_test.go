package repro

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Which fetches get a goroutine of their own under Parallel: only those the
// builder can overlap with a sibling it builds next — a join's left input
// and every union input but the last. `make alloc-guard` runs
// TestPrefetchCounts beside the allocation fences.

const (
	twoSourceJoinSQL = `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id WHERE c.region = 'west'`
	threeSourceUnionSQL = `SELECT id FROM crm.customers
		UNION ALL SELECT cust_id FROM billing.invoices
		UNION ALL SELECT cust_id FROM support.tickets`
)

func TestPrefetchCounts(t *testing.T) {
	engine := mustCRM(t, 120).Engine
	serving := core.DefaultQueryOptions()
	noSemi := serving
	noSemi.NoSemiJoin = true
	cases := []struct {
		name string
		sql  string
		qo   core.QueryOptions
		want int64
	}{
		// Semi-join: the probe fetch is drained at once and the reduced
		// fetch needs its keys, so neither overlaps anything.
		{"portal point", workload.PortalSQL(3), serving, 0},
		{"two-remote join", twoSourceJoinSQL, noSemi, 1},
		{"three-source fan-out", workload.FanOutSQL, noSemi, 2},
		{"three-input union", threeSourceUnionSQL, serving, 2},
		{"fan-out, sequential", workload.FanOutSQL, core.QueryOptions{NoSemiJoin: true}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 2; i++ { // cold, then a warm plan-cache hit
				res, err := engine.QueryOptsCtx(context.Background(), c.sql, c.qo)
				if err != nil {
					t.Fatal(err)
				}
				if res.ReplanCount != 0 {
					t.Fatalf("query re-planned %d times: the count covers every attempt", res.ReplanCount)
				}
				if res.Prefetches != c.want {
					t.Errorf("run %d: %d prefetch goroutines, want %d", i, res.Prefetches, c.want)
				}
			}
		})
	}
}

// slowCRM is a small CRM federation whose every transfer really sleeps
// sleep: each link's modelled latency is past the cap.
func slowCRM(t *testing.T, sleep time.Duration) *core.Engine {
	t.Helper()
	cfg := workload.DefaultCRM()
	cfg.Customers = 120
	cfg.LinkLatency = 2 * sleep
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed.BlockLinks(sleep)
	return fed.Engine
}

// TestPrefetchOverlapKept: fewer goroutines must not mean less overlap.
// The three fetches of the fan-out sleep 20 ms each; overlapped they take
// about one sleep, in sequence three.
func TestPrefetchOverlapKept(t *testing.T) {
	const sleep = 20 * time.Millisecond
	engine := slowCRM(t, sleep)
	qo := core.QueryOptions{Parallel: true, NoSemiJoin: true}
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := engine.QueryOptsCtx(context.Background(), workload.FanOutSQL, qo); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	if best >= 2*sleep {
		t.Errorf("parallel fan-out took %v at best, want under %v: its fetches no longer overlap", best, 2*sleep)
	}
	start := time.Now()
	if _, err := engine.QueryOptsCtx(context.Background(), workload.FanOutSQL, core.QueryOptions{NoSemiJoin: true}); err != nil {
		t.Fatal(err)
	}
	if seq := time.Since(start); seq < 3*sleep {
		t.Fatalf("sequential fan-out took %v, under three sleeps: the links do not block", seq)
	}
}

// TestInlineFetchCancel cancels a query whose one fetch now runs on the
// query's own goroutine, mid-transfer: it must stop at once with
// context.Canceled and leave no goroutine behind.
func TestInlineFetchCancel(t *testing.T) {
	engine := slowCRM(t, 500*time.Millisecond)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Duration(2+3*i)*time.Millisecond, cancel)
		start := time.Now()
		res, err := engine.QueryOptsCtx(ctx, "SELECT name FROM crm.customers", core.DefaultQueryOptions())
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		if res != nil && res.Prefetches != 0 {
			t.Errorf("run %d: %d prefetch goroutines for a single fetch", i, res.Prefetches)
		}
		if elapsed > 250*time.Millisecond {
			t.Errorf("run %d: cancelled query took %v, the transfer did not observe the cancel", i, elapsed)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("run %d: %d goroutines still running, baseline %d", i, n, base)
		}
	}
}

package core

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func waitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestE14FailingQueryNoGoroutineLeak runs E7-style fan-out queries that
// die mid-stream — a downed source fails one branch while prefetchers
// and exchange workers are busy on the others — and checks every worker
// unwinds. Exercises the cancellation path of the parallel executor
// under both default and forced-parallel options.
func TestE14FailingQueryNoGoroutineLeak(t *testing.T) {
	e := fanOutFederation(t, 32)
	down, _ := e.Source("s17")
	down.Link().SetDown(true)
	base := runtime.NumGoroutine()

	for _, qo := range []QueryOptions{
		{},
		{Parallel: true},
		{Parallel: true, Parallelism: 8, BatchSize: 16},
	} {
		for i := 0; i < 5; i++ {
			if _, err := e.QueryOptsCtx(context.Background(), "SELECT COUNT(*), SUM(v) FROM wide WHERE v >= 0", qo); err == nil {
				t.Fatal("query over downed source must error")
			}
		}
		waitGoroutineBaseline(t, base)
	}
}

// TestE14PartialQueryNoGoroutineLeak degrades around the downed source
// (AllowPartial) at full parallelism; the surviving branches complete
// and the pool exits.
func TestE14PartialQueryNoGoroutineLeak(t *testing.T) {
	e := fanOutFederation(t, 32)
	down, _ := e.Source("s5")
	down.Link().SetDown(true)
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		res, err := e.QueryOptsCtx(context.Background(), "SELECT v FROM wide",
			QueryOptions{Parallel: true, Parallelism: 8, AllowPartial: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatal("expected a partial result with s5 down")
		}
	}
	waitGoroutineBaseline(t, base)
}

package exec

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/datum"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline captured before the test body ran, failing after a deadline.
// Polling (rather than a single check) absorbs the window between a
// worker's last channel send and its exit.
func waitGoroutines(t *testing.T, base int) {
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

func leakRows(n int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i))}
	}
	return rows
}

// TestExchangeAbandonedNoLeak abandons an exchange mid-stream — the
// consumer reads one batch and Closes with the feeder and workers still
// busy. Everything must unwind.
func TestExchangeAbandonedNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ex := newExchange(context.Background(), nil, newSliceBatchIter(leakRows(200000), 64), 8, func(w int, b Batch) (Batch, error) {
		return append(Batch(nil), b...), nil
	})
	if _, err := ex.NextBatch(); err != nil {
		t.Fatal(err)
	}
	ex.Close()
	waitGoroutines(t, base)
}

// TestExchangeUnstartedCloseNoLeak closes an exchange that never served
// a batch — no goroutines were ever started, and Close must not hang.
func TestExchangeUnstartedCloseNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ex := newExchange(context.Background(), nil, newSliceBatchIter(leakRows(1000), 64), 4, func(w int, b Batch) (Batch, error) {
		return b, nil
	})
	ex.Close()
	waitGoroutines(t, base)
}

// TestExchangeErrorNoLeak errors a worker mid-stream; after the error
// surfaces and Close runs, the pool must be gone.
func TestExchangeErrorNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ex := newExchange(context.Background(), nil, newSliceBatchIter(leakRows(100000), 64), 8, func(w int, b Batch) (Batch, error) {
		if v, _ := b[0][0].AsInt(); v >= 4096 {
			return nil, fmt.Errorf("boom at %d", v)
		}
		return append(Batch(nil), b...), nil
	})
	if _, err := DrainBatches(ex); err == nil {
		t.Fatal("expected worker error")
	}
	waitGoroutines(t, base)
}

// TestExchangeDrainedNoLeak runs an exchange to EOF; the pool must have
// exited by the time Close returns.
func TestExchangeDrainedNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ex := newExchange(context.Background(), nil, newSliceBatchIter(leakRows(50000), 128), 4, func(w int, b Batch) (Batch, error) {
		return append(Batch(nil), b...), nil
	})
	rows, err := DrainBatches(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50000 {
		t.Fatalf("got %d rows, want 50000", len(rows))
	}
	waitGoroutines(t, base)
}

// TestPrefetchAbandonedNoLeak abandons a prefetching batch reader after
// one batch; the background fetch completes on its own and must not
// outlive the test.
func TestPrefetchAbandonedNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	it := prefetchBatches(context.Background(), nil, 64, func() ([]datum.Row, error) {
		return leakRows(10000), nil
	})
	if _, err := it.NextBatch(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	waitGoroutines(t, base)
}

package experiments

import (
	"context"
	"strconv"
	"testing"
	"time"
)

// TestE14VectorizedShape checks the deterministic claims of the E14
// table: full sweep coverage, batch counts that shrink as the batch size
// grows (RunE14 itself fails the run if any cell's rows diverge from the
// sequential baseline), and — the one soft timing assertion that is
// stable even on a single-core CI host — that for every workload some
// non-baseline configuration is at least as fast as row-at-a-time
// sequential execution.
func TestE14VectorizedShape(t *testing.T) {
	tab, err := RunE14(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	perWorkload := make(map[string][][]string)
	for _, row := range tab.Rows {
		perWorkload[row[0]] = append(perWorkload[row[0]], row)
	}
	if len(perWorkload) != len(e14Workloads) {
		t.Fatalf("expected %d workloads, got %d", len(e14Workloads), len(perWorkload))
	}
	for name, rows := range perWorkload {
		if len(rows) != 4 { // Quick: batches {1,1024} x degrees {1,8}
			t.Fatalf("%s: expected 4 sweep cells, got %d", name, len(rows))
		}
		var baseExec, bestExec time.Duration
		var baseBatches, bigBatches int64
		for _, row := range rows {
			batch, _ := strconv.Atoi(row[1])
			degree, _ := strconv.Atoi(row[2])
			exec, err := time.ParseDuration(row[3])
			if err != nil {
				t.Fatalf("%s: bad exec cell %q: %v", name, row[3], err)
			}
			batches, err := strconv.ParseInt(row[4], 10, 64)
			if err != nil {
				t.Fatalf("%s: bad batches cell %q: %v", name, row[4], err)
			}
			switch {
			case batch == 1 && degree == 1:
				baseExec, baseBatches = exec, batches
			default:
				if bestExec == 0 || exec < bestExec {
					bestExec = exec
				}
			}
			if batch == 1024 && degree == 1 {
				bigBatches = batches
			}
		}
		if baseBatches == 0 || bigBatches == 0 {
			t.Fatalf("%s: sweep missing the batch=1 or batch=1024 sequential cell", name)
		}
		if bigBatches*100 > baseBatches {
			t.Errorf("%s: batch=1024 processed %d batches vs %d at batch=1 — vectorization not engaged",
				name, bigBatches, baseBatches)
		}
		// Very generous slack: the point is catching a wholesale
		// regression (every swept configuration much slower than
		// row-at-a-time), not enforcing a speedup ratio — `go test ./...`
		// runs packages concurrently and CI hosts can be single-core, so
		// wall-clock cells carry heavy scheduler noise.
		if bestExec > 2*baseExec {
			t.Errorf("%s: best swept configuration (%s) is slower than the row-at-a-time baseline (%s)",
				name, bestExec, baseExec)
		}
	}
}

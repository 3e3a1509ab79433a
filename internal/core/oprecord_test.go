package core

// Explain output, the trace's operator spans and the executor's batch
// counter all read the same per-operator record (exec.OpCard). These tests
// hold them to that: after a mid-query re-plan and after a cancellation —
// the two paths where a second bookkeeping structure would drift.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
)

// opSpans flattens the operator tree under the trace's "exec" span in
// pre-order, the order renderExplain prints plan nodes in.
func opSpans(t *testing.T, trace *exec.Span) []*exec.Span {
	t.Helper()
	var out []*exec.Span
	var walk func(*exec.Span)
	walk = func(sp *exec.Span) {
		out = append(out, sp)
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, c := range trace.Children {
		if c.Name == "exec" {
			for _, root := range c.Children {
				walk(root)
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("trace has no operator spans:\n%s", trace.Render())
	}
	return out
}

// TestTraceAndExplainAgreeAfterReplan runs the stale-statistics join with
// the ledger's three readers all on. The first attempt trips the
// cardinality tripwire; what the query reports afterwards must be the
// final attempt alone, and the same numbers on every surface.
func TestTraceAndExplainAgreeAfterReplan(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	res, err := e.QueryOptsCtx(context.Background(), staleStatsQuery,
		QueryOptions{Parallel: true, Adaptive: true, Explain: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplanCount == 0 {
		t.Fatal("stale statistics did not trip a re-plan; the test needs one")
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSuffix(res.ExplainOutput, "\n"), "\n") {
		if !strings.HasPrefix(l, "--") {
			lines = append(lines, l)
		}
	}
	spans := opSpans(t, res.Trace)
	if len(spans) != len(lines) {
		t.Fatalf("%d operator spans against %d explain lines:\n%s\n%s",
			len(spans), len(lines), res.Trace.Render(), res.ExplainOutput)
	}
	var batches int64
	for i, sp := range spans {
		line := strings.TrimLeft(lines[i], " ")
		if !strings.HasPrefix(line, sp.Name) {
			t.Fatalf("span %d is %q, explain line is %q", i, sp.Name, line)
		}
		if strings.Contains(line, "actual=") {
			if !strings.HasSuffix(line, fmt.Sprintf("actual=%d)", sp.Rows)) {
				t.Errorf("span %q has rows=%d, explain says %q", sp.Name, sp.Rows, line)
			}
		} else if sp.Rows != 0 || sp.Batches != 0 || sp.Start != res.PlanTime || sp.Duration != 0 {
			// No record in the final attempt — the operator ran at a source,
			// or only in the aborted attempt (the semi-join's reduced side is
			// fetched without its Remote being built) — so no span may open.
			t.Errorf("span %q opened (%+v) but explain has no record of it: %q", sp.Name, *sp, line)
		}
		if (sp.Rows > 0) != (sp.Batches > 0) || sp.Batches > sp.Rows {
			t.Errorf("span %q: rows=%d batches=%d", sp.Name, sp.Rows, sp.Batches)
		}
		batches += sp.Batches
	}
	if spans[0].Rows != int64(len(res.Rows)) {
		t.Errorf("root span has rows=%d, the result has %d", spans[0].Rows, len(res.Rows))
	}
	// Nothing was retried: the re-planned fetch asks logs for a different
	// subtree, so it is a first attempt too.
	for _, f := range res.Trace.Fetches() {
		if f.Attempt != 1 {
			t.Errorf("fetch %s numbered attempt %d without a retry", f.Source, f.Attempt)
		}
	}
	// BatchesProcessed spans every attempt; the spans only the last.
	if batches <= 0 || batches >= res.BatchesProcessed {
		t.Errorf("final attempt's spans count %d batches, all attempts %d", batches, res.BatchesProcessed)
	}
}

// TestTraceAgreesWithBatchCountAfterCancel cancels a fan-out query while
// half of its prefetched union inputs are still blocked on slow links. The
// error comes back with a Result whose trace must already be complete:
// every operator boundary counts a batch into its own record and into the
// query-wide counter in the same step, so once the abandoned prefetches
// have been joined the two agree exactly. Under -race this is also the
// check that the join happens before the trace reads the records.
func TestTraceAgreesWithBatchCountAfterCancel(t *testing.T) {
	const sources, rowsPer = 8, 300
	e := slowFanOutFederation(t, sources, rowsPer, time.Millisecond)
	for i, name := range e.Sources() {
		if i%2 == 1 {
			src, _ := e.Source(name)
			src.Link().Latency = 10 * time.Second
			src.Link().MaxSleep = 10 * time.Second
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(150*time.Millisecond, cancel)
	res, err := e.QueryOptsCtx(ctx, "SELECT v FROM wide",
		QueryOptions{Parallel: true, BatchSize: 64, Trace: true})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Trace == nil {
		t.Fatal("a cancelled query must still return its trace")
	}
	var batches, rows int64
	for _, sp := range opSpans(t, res.Trace) {
		batches += sp.Batches
		if strings.HasPrefix(sp.Name, "Remote") {
			rows += sp.Rows
		}
	}
	if batches != res.BatchesProcessed {
		t.Errorf("operator spans count %d batches, the executor counted %d:\n%s",
			batches, res.BatchesProcessed, res.Trace.Render())
	}
	// The four fast sources answered inside their prefetch goroutines
	// long before the cancel; the slow four never did.
	if want := int64(sources / 2 * rowsPer); rows != want {
		t.Errorf("Remote spans carry %d rows, want %d from the sources that answered:\n%s",
			rows, want, res.Trace.Render())
	}
}

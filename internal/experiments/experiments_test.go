package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell that may carry a unit suffix.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v * mult
}

func TestE1PushdownWinsAndXMLTriples(t *testing.T) {
	tab, err := RunE1(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Each size opens with a quad — pushdown, push+semijoin, naive,
	// naive+xml — and one size carries the five no-<rule> ablation rows.
	ablations := 0
	for i := 0; i < len(tab.Rows); {
		size := tab.Rows[i][0]
		push := cell(t, tab.Rows[i][2])
		semi := cell(t, tab.Rows[i+1][2])
		naive := cell(t, tab.Rows[i+2][2])
		if push >= naive {
			t.Errorf("size %s: pushdown %v >= naive %v", size, push, naive)
		}
		if semi > push {
			t.Errorf("size %s: semi-join %v must not ship more than plain pushdown %v", size, semi, push)
		}
		wireNaive := cell(t, tab.Rows[i+2][3])
		wireXML := cell(t, tab.Rows[i+3][3])
		if r := wireXML / wireNaive; r < 2.5 || r > 3.5 {
			t.Errorf("XML wire inflation = %.2f, want ~3", r)
		}
		// Turning one rule off can only cost bytes, and never more than
		// turning all of them off.
		for i += 4; i < len(tab.Rows) && strings.HasPrefix(tab.Rows[i][1], "no-"); i++ {
			ablations++
			if got := cell(t, tab.Rows[i][2]); got < semi || got > naive {
				t.Errorf("size %s: %s ships %v, outside [full optimizer %v, naive %v]", size, tab.Rows[i][1], got, semi, naive)
			}
		}
	}
	if ablations != 5 {
		t.Errorf("ablation rows = %d, want one per optimizer rule (5)", ablations)
	}
}

func TestE2WarehouseVsEIIShape(t *testing.T) {
	tab, err := RunE2(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs of rows: eii then warehouse, query-heavy mix first,
	// update-heavy last.
	firstEII := cell(t, tab.Rows[0][3])
	firstWH := cell(t, tab.Rows[1][3])
	lastEII := cell(t, tab.Rows[len(tab.Rows)-2][3])
	lastWH := cell(t, tab.Rows[len(tab.Rows)-1][3])
	// Query-heavy: warehouse (one refresh) must beat EII (many live queries).
	if firstWH >= firstEII {
		t.Errorf("query-heavy: warehouse %v should beat EII %v", firstWH, firstEII)
	}
	// EII cost shrinks as queries drop; warehouse keeps its bulk cost.
	if lastEII >= firstEII {
		t.Errorf("EII cost must track query count: %v -> %v", firstEII, lastEII)
	}
	_ = lastWH
	// EII never serves stale reads; the warehouse does once updates flow.
	for i := 0; i < len(tab.Rows); i += 2 {
		if tab.Rows[i][5] != "0" {
			t.Errorf("EII staleReads = %s", tab.Rows[i][5])
		}
	}
	if tab.Rows[len(tab.Rows)-1][5] == "0" {
		t.Error("update-heavy warehouse mix should serve stale reads")
	}
}

func TestE3EconomiesOfScale(t *testing.T) {
	tab, err := RunE3(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	if cell(t, last[1]) <= cell(t, first[1]) {
		t.Error("schema-centric marginal must not shrink")
	}
	if cell(t, last[2]) >= cell(t, first[2]) {
		t.Error("schema-less marginal must shrink")
	}
	if cell(t, last[4]) >= cell(t, last[3]) {
		t.Error("schema-less cumulative must be cheaper at scale")
	}
}

func TestE4CrossoverAndAdvisorAgree(t *testing.T) {
	tab, err := RunE4(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	winners := map[string]bool{}
	for _, row := range tab.Rows {
		winners[row[4]] = true
		if row[4] != row[5] {
			t.Errorf("advisor disagreed with measurement on %s:%s reads:writes", row[0], row[1])
		}
	}
	if !winners["materialize"] || !winners["virtualize"] {
		t.Errorf("sweep must cross over, winners = %v", winners)
	}
}

func TestE5JoinIndexBeatsEquiJoinOnDirtyKeys(t *testing.T) {
	tab, err := RunE5(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	clean := tab.Rows[0]
	if cell(t, clean[1]) != 1 {
		t.Errorf("clean equi recall = %s, want 1.00", clean[1])
	}
	dirty := tab.Rows[len(tab.Rows)-1]
	equi := cell(t, dirty[1])
	idx := cell(t, dirty[2])
	if idx <= equi {
		t.Errorf("dirty keys: index recall %v must beat equi recall %v", idx, equi)
	}
	if idx < 0.7 {
		t.Errorf("index recall %v too low", idx)
	}
}

func TestE6OptimizerAdaptsToAccessPath(t *testing.T) {
	tab, err := RunE6(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		optimized := cell(t, row[1])
		fixed := cell(t, row[2])
		if optimized >= fixed {
			t.Errorf("%s: optimized %v >= fixed %v", row[0], optimized, fixed)
		}
	}
}

func TestE7ParallelSpeedup(t *testing.T) {
	tab, err := RunE7(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	speedup := cell(t, last[3])
	if speedup < 1.3 {
		t.Errorf("parallel speedup = %v, want >= 1.3 at high latency", speedup)
	}
}

func TestE8SearchCoverage(t *testing.T) {
	tab, err := RunE8(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if !strings.Contains(row[3], "2 kinds") {
			t.Errorf("hits must span structured+unstructured: %v", row)
		}
		if !strings.Contains(row[3], "3 sources") {
			t.Errorf("hits must span all 3 sources: %v", row)
		}
	}
}

func TestE9MediatedStaysAgile(t *testing.T) {
	tab, err := RunE9(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		med, p2p := tab.Rows[i], tab.Rows[i+1]
		if med[3] != "1" {
			t.Errorf("mediated touched = %s, want 1", med[3])
		}
		if cell(t, p2p[3]) <= cell(t, med[3]) && p2p[0] != "1" {
			t.Errorf("p2p must touch more mappings: %v", p2p)
		}
	}
}

func TestE10SagaLeavesNoResidue(t *testing.T) {
	tab, err := RunE10(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	sawNaiveResidue := false
	for _, row := range tab.Rows {
		if row[1] == "saga" && row[3] != "0" {
			t.Errorf("saga run at %s left residue %s", row[0], row[3])
		}
		if row[1] == "naive" && row[0] != "none" && row[3] != "0" {
			sawNaiveResidue = true
		}
	}
	if !sawNaiveResidue {
		t.Error("naive runs should leave residue at some failure point")
	}
}

func TestE11AllGuidelinesMatch(t *testing.T) {
	tab, err := RunE11(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "yes" {
			t.Errorf("advisor mismatch: %v", row)
		}
	}
}

func TestE12FaultToleranceShape(t *testing.T) {
	tab, err := RunE12(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in triples per failure rate: naive, retry, retry+brk+partial.
	success := func(row []string) float64 {
		return cell(t, strings.TrimSuffix(row[2], "%"))
	}
	complete := func(row []string) float64 {
		return cell(t, strings.TrimSuffix(row[5], "%"))
	}
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		naive, retry, degraded := tab.Rows[i], tab.Rows[i+1], tab.Rows[i+2]
		if naive[0] == "0%" {
			// Fault-free baseline: everything succeeds completely.
			for _, row := range [][]string{naive, retry, degraded} {
				if success(row) != 100 || complete(row) != 100 {
					t.Errorf("fault-free row degraded: %v", row)
				}
			}
			continue
		}
		if success(retry) < success(naive) {
			t.Errorf("%s: retry success %v below naive %v", naive[0], success(retry), success(naive))
		}
		if success(degraded) != 100 {
			t.Errorf("%s: partial mode success = %v, want 100", naive[0], success(degraded))
		}
		if naive[0] == "10%" {
			if success(retry) < 99 {
				t.Errorf("10%% failures: retry success = %v, want >= 99", success(retry))
			}
			if success(naive) >= 99 {
				t.Errorf("10%% failures: naive success = %v, should be measurably lower", success(naive))
			}
		}
	}
}

func TestE20AdaptiveBeatsStaleStats(t *testing.T) {
	tab, err := RunE20(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	// RunE20 already asserts byte-identical results, >=1 replan, and the
	// >=5x link-time gap internally; spot-check the reported shape too.
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	static, adaptive := tab.Rows[0], tab.Rows[1]
	if static[2] != "0" {
		t.Errorf("static replans = %s, want 0", static[2])
	}
	if cell(t, adaptive[2]) < 1 {
		t.Errorf("adaptive replans = %s, want >= 1", adaptive[2])
	}
	if cell(t, static[3]) < 2*cell(t, adaptive[3]) {
		t.Errorf("static shipped %s vs adaptive %s, want >= 2x", static[3], adaptive[3])
	}
}

func TestAllRunsAndRenders(t *testing.T) {
	tabs, err := All(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(registry) {
		t.Fatalf("experiments = %d, registry has %d", len(tabs), len(registry))
	}
	for i, tab := range tabs {
		if tab.ID != registry[i].ID {
			t.Errorf("table %d has ID %s, registered as %s", i, tab.ID, registry[i].ID)
		}
		out := tab.Render()
		if !strings.Contains(out, tab.ID) || !strings.Contains(out, "claim:") {
			t.Errorf("render of %s missing header", tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
	}
}

func TestRunSelectsByID(t *testing.T) {
	tabs, err := Run(context.Background(), Quick, "E6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || tabs[0].ID != "E6" {
		t.Fatalf("Run(E6) returned %d tables, first %+v", len(tabs), tabs)
	}

	_, err = Run(context.Background(), Quick, "E3", "E99")
	if !errors.Is(err, ErrUnknown) || !strings.Contains(err.Error(), `"E99"`) ||
		!strings.Contains(err.Error(), strings.Join(IDs(), ", ")) {
		t.Errorf("Run(E99) error = %v, want ErrUnknown naming E99 and the valid IDs", err)
	}
}

// A failing experiment is reported under its table ID, not its position in
// the list (E16 is the fifteenth entry).
func TestRunNamesTheFailingExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"E6", "E16"} {
		_, err := Run(ctx, Quick, id)
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), id+": ") {
			t.Errorf("Run(%s) under a cancelled context: %v, want context.Canceled prefixed %q", id, err, id+": ")
		}
	}
}

// Selection happens before anything runs: only the named experiments'
// functions are called, in registry order, and an unknown ID calls none.
func TestRunCallsOnlySelected(t *testing.T) {
	saved := registry
	defer func() { registry = saved }()
	var calls []string
	registry = nil
	for _, id := range saved {
		id := id.ID
		registry = append(registry, experiment{id, func(context.Context, Scale) (Table, error) {
			calls = append(calls, id)
			return Table{ID: id}, nil
		}})
	}
	if _, err := Run(context.Background(), Quick, "E5", "E3"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(calls, ","); got != "E3,E5" {
		t.Errorf("Run(E5, E3) called %q, want E3,E5", got)
	}
	calls = nil
	if _, err := Run(context.Background(), Quick, "E3", "E99"); err == nil || len(calls) != 0 {
		t.Errorf("Run with an unknown ID: err %v, called %v; want an error and no calls", err, calls)
	}
}

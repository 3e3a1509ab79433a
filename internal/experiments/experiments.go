// Package experiments implements the reproduction harness: one experiment
// per quantified claim in the paper (the paper has no numbered tables or
// figures — see DESIGN.md §1 and §4 for the claim-to-experiment mapping).
// Each Run* function assembles the needed federation, drives it, and
// returns a Table whose rows cmd/eiibench prints and EXPERIMENTS.md
// records.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/netsim"
)

// Table is one reproduced result table.
type Table struct {
	// ID is the experiment identifier from DESIGN.md §4 (one of IDs()).
	ID string
	// Title summarizes what is measured.
	Title string
	// Claim quotes the paper passage the experiment reproduces.
	Claim string
	// ExpectedShape states the qualitative outcome the paper implies.
	ExpectedShape string
	// Columns and Rows hold the measured series.
	Columns []string
	Rows    [][]string
	// Notes records caveats or derived observations.
	Notes string
}

// Render formats the table for terminal output.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	fmt.Fprintf(&b, "expected shape: %s\n\n", t.ExpectedShape)

	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\nnote: %s\n", t.Notes)
	}
	return b.String()
}

// Scale selects how large the experiment federations are.
type Scale int

// Scales.
const (
	// Quick runs in well under a second per experiment (CI, tests).
	Quick Scale = iota
	// Full runs the sweep sizes reported in EXPERIMENTS.md.
	Full
)

// experiment is one registry entry: a table ID and the function that
// produces the table.
type experiment struct {
	ID  string
	Run func(context.Context, Scale) (Table, error)
}

// registry lists the experiments in ID order. E15, E17 and E19 have no
// table: their claims are asserted by tests and microbenchmarks (DESIGN.md
// §4). All, Run, cmd/eiibench and the tests read this list and nothing else.
var registry = []experiment{
	{"E1", RunE1}, {"E2", RunE2}, {"E3", RunE3}, {"E4", RunE4}, {"E5", RunE5},
	{"E6", RunE6}, {"E7", RunE7}, {"E8", RunE8}, {"E9", RunE9}, {"E10", RunE10},
	{"E11", RunE11}, {"E12", RunE12}, {"E13", RunE13}, {"E14", RunE14},
	{"E16", RunE16}, {"E18", RunE18}, {"E20", RunE20},
}

// IDs lists the experiments that produce a table, in the order they run.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, ex := range registry {
		ids[i] = ex.ID
	}
	return ids
}

// All runs every experiment at the given scale, in ID order.
func All(ctx context.Context, scale Scale) ([]Table, error) {
	return Run(ctx, scale)
}

// ErrUnknown is wrapped by Run's error for an ID that is not in IDs().
var ErrUnknown = errors.New("unknown experiment")

// Run runs the experiments named by ids (all of them when none is named)
// in registry order, whatever order ids come in. An unknown ID is an error
// that lists the valid ones, and nothing runs; a failing experiment's
// error names its ID and comes with the tables finished before it.
func Run(ctx context.Context, scale Scale, ids ...string) ([]Table, error) {
	selected := registry
	if len(ids) > 0 {
		want := make(map[string]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		selected = nil
		for _, ex := range registry {
			if want[ex.ID] {
				selected = append(selected, ex)
				delete(want, ex.ID)
			}
		}
		for _, id := range ids {
			if want[id] {
				return nil, fmt.Errorf("%w %q: valid experiments are %s",
					ErrUnknown, id, strings.Join(IDs(), ", "))
			}
		}
	}
	out := make([]Table, 0, len(selected))
	for _, ex := range selected {
		t, err := ex.Run(ctx, scale)
		if err != nil {
			return out, fmt.Errorf("%s: %w", ex.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// stopwatch starts timing on clock and returns the function that reads
// the elapsed time. Experiments that measure wall time read the clock the
// engine was given, as the engine itself does.
func stopwatch(clock netsim.Clock) func() time.Duration {
	start := clock.Now()
	return func() time.Duration { return clock.Since(start) }
}

// fmtBytes renders a byte count compactly.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ratio renders a/b with one decimal, guarding zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

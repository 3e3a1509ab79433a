// Package experiments implements the reproduction harness: one experiment
// per quantified claim in the paper (the paper has no numbered tables or
// figures — see DESIGN.md §1 and §4 for the claim-to-experiment mapping).
// Each Run* function assembles the needed federation, drives it, and
// returns a Table whose rows cmd/eiibench prints and EXPERIMENTS.md
// records.
package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Table is one reproduced result table.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (E1..E11).
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

// All runs every experiment at the given scale, in ID order.
func All(ctx context.Context, scale Scale) ([]Table, error) {
	runs := []func(context.Context, Scale) (Table, error){
		RunE1, RunE2, RunE3, RunE4, RunE5, RunE6, RunE7, RunE8, RunE9, RunE10, RunE11, RunE12, RunE13, RunE14, RunE16, RunE18, RunE20,
	}
	out := make([]Table, 0, len(runs))
	for _, run := range runs {
		t, err := run(ctx, scale)
		if err != nil {
			return out, fmt.Errorf("experiment %d: %w", len(out)+1, err)
		}
		out = append(out, t)
	}
	return out, nil
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

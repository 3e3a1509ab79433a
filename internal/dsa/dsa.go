// Package dsa implements data service agreements — §7 (Rosenthal): "One
// needs agreements that capture the obligations of each party in a formal
// language. ... the provider may be obligated to provide data of a
// specified quality, and to notify the consumer if reported data changes.
// The consumer may be obligated to protect the data, to use it only for a
// specified purpose. Data offers opportunities unavailable for arbitrary
// services, e.g. ... automated violation detection for some conditions."
//
// An Agreement binds a provider source and a consumer with a list of
// obligations. Provider obligations over data (quality, row counts, schema
// stability, notification support, availability) are machine-checkable; a
// Monitor evaluates them against the live federation and reports
// violations. Consumer obligations (purpose, protection) are recorded and
// surfaced but — as in the paper — not automatically enforceable.
package dsa

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Violation is one detected breach of an obligation.
type Violation struct {
	Agreement  string
	Obligation string
	Detail     string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Agreement, v.Obligation, v.Detail)
}

// Obligation is a machine-checkable provider commitment.
type Obligation interface {
	// Describe names the obligation for reports.
	Describe() string
	// Check evaluates the obligation against the provider; nil means
	// satisfied.
	Check(ctx context.Context, provider federation.Source) *failure
}

type failure struct{ detail string }

// --- Provider obligations ---

// MaxNullFraction commits the provider to data quality: at most the given
// fraction of NULLs in a column.
type MaxNullFraction struct {
	Table, Column string
	Max           float64
}

// Describe implements Obligation.
func (o MaxNullFraction) Describe() string {
	return fmt.Sprintf("quality: %s.%s null fraction <= %.2f", o.Table, o.Column, o.Max)
}

// Check implements Obligation.
func (o MaxNullFraction) Check(_ context.Context, provider federation.Source) *failure {
	cat := provider.Catalog()
	tab, ok := cat.Table(o.Table)
	if !ok {
		return &failure{fmt.Sprintf("table %s missing", o.Table)}
	}
	idx := tab.ColumnIndex(o.Column)
	if idx < 0 {
		return &failure{fmt.Sprintf("column %s.%s missing", o.Table, o.Column)}
	}
	st, ok := cat.Stats(o.Table)
	if !ok || idx >= len(st.Cols) {
		return &failure{fmt.Sprintf("no statistics published for %s", o.Table)}
	}
	if got := st.Cols[idx].NullFrac; got > o.Max {
		return &failure{fmt.Sprintf("null fraction %.3f exceeds %.3f", got, o.Max)}
	}
	return nil
}

// MinRows commits the provider to a minimum population of a table.
type MinRows struct {
	Table string
	Min   int64
}

// Describe implements Obligation.
func (o MinRows) Describe() string {
	return fmt.Sprintf("population: %s rows >= %d", o.Table, o.Min)
}

// Check implements Obligation.
func (o MinRows) Check(_ context.Context, provider federation.Source) *failure {
	st, ok := provider.Catalog().Stats(o.Table)
	if !ok {
		return &failure{fmt.Sprintf("no statistics published for %s", o.Table)}
	}
	if st.Rows < o.Min {
		return &failure{fmt.Sprintf("rows %d below %d", st.Rows, o.Min)}
	}
	return nil
}

// SchemaStable commits the provider to keep the named columns present with
// their kinds — the "predictable changes" §7 wants contracts over.
type SchemaStable struct {
	Table   string
	Columns []string
}

// Describe implements Obligation.
func (o SchemaStable) Describe() string {
	return fmt.Sprintf("schema: %s keeps columns (%s)", o.Table, strings.Join(o.Columns, ", "))
}

// Check implements Obligation.
func (o SchemaStable) Check(_ context.Context, provider federation.Source) *failure {
	tab, ok := provider.Catalog().Table(o.Table)
	if !ok {
		return &failure{fmt.Sprintf("table %s missing", o.Table)}
	}
	var missing []string
	for _, c := range o.Columns {
		if tab.ColumnIndex(c) < 0 {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		return &failure{fmt.Sprintf("columns dropped: %s", strings.Join(missing, ", "))}
	}
	return nil
}

// MustNotify commits the provider to change notification on a table —
// "to notify the consumer if reported data changes".
type MustNotify struct {
	Table string
}

// Describe implements Obligation.
func (o MustNotify) Describe() string {
	return fmt.Sprintf("notify: %s pushes change notifications", o.Table)
}

// Check implements Obligation.
func (o MustNotify) Check(_ context.Context, provider federation.Source) *failure {
	n, ok := provider.(federation.Notifying)
	if !ok {
		return &failure{"source does not support change notification"}
	}
	cancel, err := n.SubscribeTable(o.Table, func(storage.Change) {})
	if err != nil {
		return &failure{err.Error()}
	}
	cancel()
	return nil
}

// Available commits the provider to answer a probe scan within the latency
// bound (simulated time).
type Available struct {
	Table      string
	MaxLatency time.Duration
}

// Describe implements Obligation.
func (o Available) Describe() string {
	return fmt.Sprintf("availability: %s answers a probe within %s", o.Table, o.MaxLatency)
}

// Check implements Obligation.
func (o Available) Check(ctx context.Context, provider federation.Source) *failure {
	tab, ok := provider.Catalog().Table(o.Table)
	if !ok {
		return &failure{fmt.Sprintf("table %s missing", o.Table)}
	}
	cols := make([]plan.ColMeta, tab.Arity())
	for i, c := range tab.Columns {
		cols[i] = plan.ColMeta{Table: o.Table, Name: c.Name, Kind: c.Kind}
	}
	before := provider.Link().Metrics().SimTime
	_, err := provider.ExecuteCtx(ctx, &plan.Scan{
		Source: provider.Name(), Table: tab.Name, Alias: tab.Name, Cols: cols,
	})
	if err != nil {
		// The probe crosses the simulated link, so injected faults and
		// forced outages (netsim.FaultError) surface here as violations.
		var fe *netsim.FaultError
		if errors.As(err, &fe) {
			return &failure{fmt.Sprintf("source unavailable (%s): %s", fe.Kind, fe.Detail)}
		}
		return &failure{fmt.Sprintf("probe failed: %v", err)}
	}
	elapsed := provider.Link().Metrics().SimTime - before
	if o.MaxLatency > 0 && elapsed > o.MaxLatency {
		return &failure{fmt.Sprintf("probe took %s, bound %s", elapsed, o.MaxLatency)}
	}
	return nil
}

// --- Consumer obligations (recorded, not auto-enforced) ---

// ConsumerTerm is a declarative consumer-side commitment.
type ConsumerTerm struct {
	// Kind is e.g. "purpose", "protection", "retention".
	Kind string
	// Text states the commitment.
	Text string
}

// Agreement binds a provider and consumer with obligations.
type Agreement struct {
	Name     string
	Provider string // source name
	Consumer string // free-form consumer identity
	// Obligations are the provider's machine-checkable commitments.
	Obligations []Obligation
	// ConsumerTerms are recorded for audit; they cannot be auto-checked.
	ConsumerTerms []ConsumerTerm
}

// Monitor evaluates agreements against a set of sources.
type Monitor struct {
	sources map[string]federation.Source
}

// NewMonitor creates a monitor over the given sources.
func NewMonitor(sources ...federation.Source) *Monitor {
	m := &Monitor{sources: make(map[string]federation.Source, len(sources))}
	for _, s := range sources {
		m.sources[strings.ToLower(s.Name())] = s
	}
	return m
}

// Check evaluates every obligation of the agreement and returns the
// detected violations (empty means fully satisfied).
func (m *Monitor) Check(ctx context.Context, a *Agreement) []Violation {
	provider, ok := m.sources[strings.ToLower(a.Provider)]
	if !ok {
		return []Violation{{
			Agreement:  a.Name,
			Obligation: "provider",
			Detail:     fmt.Sprintf("provider source %q not reachable", a.Provider),
		}}
	}
	var out []Violation
	for _, o := range a.Obligations {
		if f := o.Check(ctx, provider); f != nil {
			out = append(out, Violation{Agreement: a.Name, Obligation: o.Describe(), Detail: f.detail})
		}
	}
	return out
}

// CheckAll evaluates several agreements.
func (m *Monitor) CheckAll(ctx context.Context, agreements []*Agreement) []Violation {
	var out []Violation
	for _, a := range agreements {
		out = append(out, m.Check(ctx, a)...)
	}
	return out
}

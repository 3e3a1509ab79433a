package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/linkage"
	"repro/internal/netsim"
	"repro/internal/schema"
)

// CorrelationSourceName is the reserved mediator-local source holding
// persisted record-correlation tables (§5's join indexes). It lives at the
// mediator, so probing it costs no network.
const CorrelationSourceName = "correlations"

// DefineCorrelation persists a record-linkage join index as a queryable
// table `correlations.<name>` with columns (left_key, right_key, score).
// SQL can then join two sources that share no reliable key by going
// through the correlation table:
//
//	SELECT ... FROM crm.customers c
//	JOIN correlations.cust2legacy m ON c.id = m.left_key
//	JOIN legacy.clients l ON l.cust_no = m.right_key
//
// This is exactly the §5 feature: "creating and storing what was
// essentially a join index between the sources."
func (e *Engine) DefineCorrelation(name string, ix *linkage.JoinIndex) error {
	pairs := ix.Pairs()
	if len(pairs) == 0 {
		return fmt.Errorf("core: correlation %s has no pairs", name)
	}
	leftKind := pairs[0].Left.Kind()
	rightKind := pairs[0].Right.Kind()
	src, err := e.correlationSource()
	if err != nil {
		return err
	}
	tab, err := src.CreateTable(schema.MustTable(name, []schema.Column{
		{Name: "left_key", Kind: leftKind},
		{Name: "right_key", Kind: rightKind},
		{Name: "score", Kind: datum.KindFloat},
	}))
	if err != nil {
		return err
	}
	for _, p := range pairs {
		if p.Left.Kind() != leftKind || p.Right.Kind() != rightKind {
			return fmt.Errorf("core: correlation %s mixes key kinds", name)
		}
		if err := tab.Insert(datum.Row{p.Left, p.Right, datum.NewFloat(p.Score)}); err != nil {
			return fmt.Errorf("core: correlation %s: %w", name, err)
		}
	}
	src.RefreshStats()
	// The correlation table was added to an existing source catalog in
	// place, where the catalog cannot see it.
	e.touchCorrelation(name)
	return nil
}

// DropCorrelation removes a persisted correlation table.
func (e *Engine) DropCorrelation(name string) error {
	src, ok := e.Source(CorrelationSourceName)
	if !ok {
		return fmt.Errorf("core: no correlations defined")
	}
	rel, ok := src.(*federation.RelationalSource)
	if !ok {
		return fmt.Errorf("core: correlation source has unexpected type %T", src)
	}
	tab, ok := rel.Table(name)
	if !ok {
		return fmt.Errorf("core: unknown correlation %s", name)
	}
	tab.Truncate()
	e.touchCorrelation(name)
	return nil
}

// touchCorrelation records that the correlation table name changed, under
// its qualified and its bare name, and retires the plans that read it.
func (e *Engine) touchCorrelation(name string) {
	names := []catalog.Name{catalog.NameOf(CorrelationSourceName, name), catalog.NameOf("", name)}
	e.catalog.Touch(names...)
	e.retirePlans(names)
}

// correlationSource returns (registering on first use) the mediator-local
// store for join indexes.
func (e *Engine) correlationSource() (*federation.RelationalSource, error) {
	if src, ok := e.Source(CorrelationSourceName); ok {
		rel, ok := src.(*federation.RelationalSource)
		if !ok {
			return nil, fmt.Errorf("core: source %q is reserved for correlations", CorrelationSourceName)
		}
		return rel, nil
	}
	rel := federation.NewRelationalSource(CorrelationSourceName, federation.FullSQL(), netsim.LocalLink())
	if err := e.Register(rel); err != nil {
		return nil, err
	}
	return rel, nil
}

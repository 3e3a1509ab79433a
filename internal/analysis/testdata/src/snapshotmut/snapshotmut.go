// Fixture for the snapshotmut analyzer: hit, miss, and ignore cases.
package fixture

import (
	"repro/internal/catalog"
	"repro/internal/feedback"
)

func hitFieldWrite(g *catalog.Global) {
	if v, ok := g.View("orders"); ok {
		v.SQL = "SELECT 1" // want "write to catalog.View field \"SQL\""
	}
}

func hitStructOverwrite(v *catalog.View) {
	*v = catalog.View{} // want "overwrite of catalog.View through a pointer"
}

func missCopyOnWriteMutators(g *catalog.Global) error {
	if err := g.DefineView("v", "SELECT name FROM customers"); err != nil {
		return err
	}
	g.DropView("v")
	return nil
}

func missValueCopy(v *catalog.View) string {
	cp := *v
	cp.SQL = "local copy: harmless" // value copy never aliases the snapshot
	return cp.SQL
}

func missReads(g *catalog.Global) int {
	snap := g.Snapshot()
	return len(snap.ViewNames()) + int(snap.Version())
}

func ignored(v *catalog.View) {
	//lint:ignore snapshotmut fixture: view not yet published to any snapshot
	v.SQL = "pre-publication construction"
}

// E20: the feedback store's published estimates are covered too.

func hitEstimateWrite(est *feedback.Estimate) {
	est.Rows = 42 // want "write to feedback.Estimate field \"Rows\""
}

func hitEstimateOverwrite(est *feedback.Estimate) {
	*est = feedback.Estimate{} // want "overwrite of feedback.Estimate through a pointer"
}

func missObserveMutator(s *feedback.Store, k feedback.Key) {
	s.Observe(k, 100, 10) // the mutator API is how estimates move
}

func missEstimateValueCopy(s *feedback.Store, k feedback.Shape) float64 {
	est, ok := s.Lookup(k) // Lookup returns a value copy by design
	if !ok {
		return 0
	}
	est.Rows *= 2 // local copy: harmless
	return est.Rows
}

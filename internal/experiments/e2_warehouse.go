package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datum"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// RunE2 reproduces the EII-vs-warehouse tradeoff of §3 and §5: "the
// tradeoffs between the cost of building a warehouse, the cost of a live
// query and the cost of accessing stale data." A fixed stream of queries
// and updates runs against (a) the EII mediator (live, pays network per
// query, staleness zero) and (b) a warehouse refreshed once per period
// (bulk cost, queries free, staleness grows with the update rate).
func RunE2(ctx context.Context, scale Scale) (Table, error) {
	mixes := []struct{ queries, updates int }{
		{50, 5}, {20, 20}, {5, 50},
	}
	if scale == Full {
		mixes = []struct{ queries, updates int }{
			{200, 5}, {100, 25}, {50, 50}, {25, 100}, {5, 200},
		}
	}
	t := Table{
		ID:            "E2",
		Title:         "EII (live) vs warehouse (ETL + stale reads) across query:update mixes",
		Claim:         `§3: "explain to potential customers the tradeoffs between the cost of building a warehouse, the cost of a live query and the cost of accessing stale data. Customers want simple formulas ... but those are not available"`,
		ExpectedShape: "EII cost scales with query count, staleness 0; warehouse cost is one bulk refresh, staleness scales with update count; crossover where queries are frequent relative to updates",
		Columns:       []string{"queries", "updates", "system", "netBytes", "netTime", "staleReads"},
	}
	query := "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region"

	for _, mix := range mixes {
		// --- EII: every query live, updates land directly on sources.
		fed, err := workload.CRMOf(300)
		if err != nil {
			return t, err
		}
		fed.Engine.ResetMetrics()
		for u := 0; u < mix.updates; u++ {
			if err := applyUpdate(ctx, fed, u); err != nil {
				return t, err
			}
		}
		staleEII := 0
		for q := 0; q < mix.queries; q++ {
			if _, err := fed.Engine.QueryCtx(ctx, query); err != nil {
				return t, err
			}
			// Live queries always see current data.
		}
		m := fed.Engine.NetworkTotals()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mix.queries), fmt.Sprint(mix.updates), "eii",
			fmtBytes(m.BytesShipped), m.SimTime.Round(time.Microsecond).String(),
			fmt.Sprint(staleEII),
		})

		// --- Warehouse: one refresh up front, then local queries; the
		// updates stream in during the period, so every query after the
		// first update reads stale data.
		fed2, err := workload.CRMOf(300)
		if err != nil {
			return t, err
		}
		w, err := warehouse.New("dw")
		if err != nil {
			return t, err
		}
		if err := w.AddFeed(fed2.CRM, "customers"); err != nil {
			return t, err
		}
		if err := w.AddFeed(fed2.Billing, "invoices"); err != nil {
			return t, err
		}
		if err := w.Engine().DefineView("customer360", `
			SELECT c.id AS id, c.name AS name, c.region AS region, c.segment AS segment,
			       i.inv_id AS inv_id, i.amount AS amount, i.status AS status
			FROM dw.customers c JOIN dw.invoices i ON c.id = i.cust_id`); err != nil {
			return t, err
		}
		fed2.Engine.ResetMetrics()
		if _, err := w.Refresh(ctx); err != nil {
			return t, err
		}
		// Interleave: updates spread evenly through the query stream.
		staleReads := 0
		applied := 0
		for q := 0; q < mix.queries; q++ {
			for applied*mix.queries < q*mix.updates {
				if err := applyUpdate(ctx, fed2, applied); err != nil {
					return t, err
				}
				applied++
			}
			if _, err := w.Query(ctx, query); err != nil {
				return t, err
			}
			if w.TotalStaleness() > 0 {
				staleReads++
			}
		}
		for applied < mix.updates {
			if err := applyUpdate(ctx, fed2, applied); err != nil {
				return t, err
			}
			applied++
		}
		m2 := fed2.Engine.NetworkTotals()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mix.queries), fmt.Sprint(mix.updates), "warehouse",
			fmtBytes(m2.BytesShipped), m2.SimTime.Round(time.Microsecond).String(),
			fmt.Sprint(staleReads),
		})
	}
	t.Notes = "netBytes for the warehouse includes the bulk refresh and the source-side update traffic; its queries are local and free"
	return t, nil
}

// applyUpdate mutates one invoice amount at the billing source.
func applyUpdate(ctx context.Context, fed *workload.CRMFederation, i int) error {
	target := int64(i%100 + 1)
	_, err := fed.Billing.Update(ctx, "invoices",
		func(r datum.Row) bool { return r[0].Int() == target },
		func(r datum.Row) datum.Row {
			r[2] = datum.NewFloat(r[2].Float() + 1)
			return r
		})
	return err
}

// Dashboard: §1's "digital dashboards that required tracking information
// from multiple sources in real time" and §3's virtualization guideline 3
// ("data that must reflect up-to-the-minute operational facts"). A revenue
// dashboard is served twice — live through EII and cached through a
// materialized view — while updates stream in; the output shows the
// freshness/cost tradeoff and what the advisor recommends.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datum"
	"repro/internal/matview"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	fed, err := workload.BuildCRM(workload.DefaultCRM())
	if err != nil {
		log.Fatal(err)
	}
	engine := fed.Engine
	mgr := matview.NewManager(engine)

	const dashSQL = "SELECT region, COUNT(*) AS invoices, SUM(amount) AS revenue FROM customer360 GROUP BY region ORDER BY region"
	if _, err := mgr.Materialize(ctx, "revenue_dash", dashSQL); err != nil {
		log.Fatal(err)
	}

	render := func(label string, mode matview.Mode) {
		engine.ResetMetrics()
		res, err := mgr.Read(ctx, "revenue_dash", mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s (network: %s) ---\n", label, engine.NetworkTotals())
		for _, row := range res.Rows {
			fmt.Printf("%-6s invoices=%-5s revenue=%s\n",
				row[0].Display(), row[1].Display(), row[2].Display())
		}
	}

	render("initial dashboard (cached)", matview.Cached)

	// A burst of operational updates lands on the billing source.
	for i := 0; i < 50; i++ {
		target := int64(i + 1)
		if _, err := fed.Billing.Update(ctx, "invoices",
			func(r datum.Row) bool { return r[0].Int() == target },
			func(r datum.Row) datum.Row {
				r[2] = datum.NewFloat(r[2].Float() + 500)
				return r
			}); err != nil {
			log.Fatal(err)
		}
	}
	mgr.Invalidate("revenue_dash")

	render("after updates, cached view (stale — cheap but wrong)", matview.Cached)
	render("after updates, live EII (fresh — costs the network)", matview.Live)

	// §3's guideline: a real-time dashboard must virtualize.
	decision, reason := matview.Advise(matview.Scenario{NeedsLiveData: true})
	fmt.Printf("\nadvisor: %s — %s\n", decision, reason)

	// But a report read 1000x per update should materialize.
	decision, reason = matview.Advise(matview.Scenario{ReadsPerUpdate: 1000})
	fmt.Printf("advisor: %s — %s\n", decision, reason)
}

// CRM: §1's first fielded EII application — "provide the customer-facing
// worker a global view of a customer whose data is residing in multiple
// sources." Three heterogeneous sources (full-SQL CRM, full-SQL billing,
// filter-only support files) serve a single customer-360 view; the example
// shows the per-source pushdown SQL and contrasts optimized vs naive data
// movement.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	fed, err := workload.BuildCRM(workload.DefaultCRM())
	if err != nil {
		log.Fatal(err)
	}
	engine := fed.Engine
	target := workload.CustomerName(7)

	// The customer-facing worker's screen: everything about one customer.
	fmt.Printf("--- global view of %q ---\n", target)
	res, err := engine.QueryCtx(ctx, fmt.Sprintf(`
		SELECT id, region, segment, inv_id, amount, status
		FROM customer360 WHERE name = '%s' ORDER BY inv_id`, target))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("cust=%s region=%-5s segment=%-10s invoice=%s amount=%7s status=%s\n",
			row[0].Display(), row[1].Display(), row[2].Display(),
			row[3].Display(), row[4].Display(), row[5].Display())
	}

	// Support tickets live in a filter-only delimited-file source: the
	// mediator pushes the predicate there but joins centrally.
	fmt.Println("\n--- open tickets joined across capability boundaries ---")
	out, err := engine.Explain(ctx, `
		SELECT c.name, tk.severity FROM crm.customers c
		JOIN support.tickets tk ON tk.cust_id = c.id
		WHERE tk.severity >= 3 AND c.segment = 'enterprise'`, core.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	// The §3 point, measured: optimized vs pull-everything.
	query := `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' AND i.status = 'overdue'`
	engine.ResetMetrics()
	if _, err := engine.QueryCtx(ctx, query); err != nil {
		log.Fatal(err)
	}
	optBytes := engine.NetworkTotals().BytesShipped
	engine.ResetMetrics()
	naive := core.QueryOptions{Optimizer: workload.NaiveOptimizer()}
	if _, err := engine.QueryOptsCtx(ctx, query, naive); err != nil {
		log.Fatal(err)
	}
	naiveBytes := engine.NetworkTotals().BytesShipped
	fmt.Printf("--- data shipped: pushdown=%d bytes, pull-everything=%d bytes (%.1fx) ---\n",
		optBytes, naiveBytes, float64(naiveBytes)/float64(optBytes))
}

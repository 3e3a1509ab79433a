// Quickstart: build a two-source federation, define a mediated view, and
// run one federated query — the minimal end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
)

func main() {
	ctx := context.Background()
	// 1. Two data sources, each behind a simulated network link.
	crm := federation.NewRelationalSource("crm", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 10e6, 1))
	customers, err := crm.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
	}, 0))
	if err != nil {
		log.Fatal(err)
	}
	billing := federation.NewRelationalSource("billing", federation.FullSQL(),
		netsim.NewLink(2*time.Millisecond, 10e6, 1))
	invoices, err := billing.CreateTable(schema.MustTable("invoices", []schema.Column{
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
	}))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Some data.
	for i, name := range []string{"Ann", "Bob", "Cal"} {
		if err := customers.Insert(datum.Row{datum.NewInt(int64(i + 1)), datum.NewString(name)}); err != nil {
			log.Fatal(err)
		}
	}
	for _, inv := range [][2]float64{{1, 120}, {1, 80}, {2, 40}} {
		if err := invoices.Insert(datum.Row{datum.NewInt(int64(inv[0])), datum.NewFloat(inv[1])}); err != nil {
			log.Fatal(err)
		}
	}
	crm.RefreshStats()
	billing.RefreshStats()

	// 3. The mediator: register sources, define the virtual (mediated)
	// view. No data moves yet — the view is a GAV mapping.
	engine := core.New()
	for _, s := range []federation.Source{crm, billing} {
		if err := engine.Register(s); err != nil {
			log.Fatal(err)
		}
	}
	err = engine.DefineView("customer_totals", `
		SELECT c.name AS name, SUM(i.amount) AS total
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id
		GROUP BY c.name`)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Query the mediated schema: the engine reformulates over the
	// sources, pushes work down, and assembles the answer.
	res, err := engine.QueryCtx(ctx, "SELECT name, total FROM customer_totals WHERE total > 50 ORDER BY total DESC")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("%-4s %6.0f\n", row[0].Display(), row[1].Float())
	}
	fmt.Printf("network: %s\n", res.Network)
}

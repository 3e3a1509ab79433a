// Enterprise search: §8's (Sikka) Jamie scenario — "find all the
// information related to a customer", spanning structured rows (orders,
// invoices), business objects and unstructured documents, with drill-down
// from any hit. One index covers the whole federation; results are grouped
// by source.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/docstore"
	"repro/internal/search"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	fed, err := workload.BuildCRM(workload.DefaultCRM())
	if err != nil {
		log.Fatal(err)
	}
	engine := fed.Engine
	ix := search.NewIndex()

	// Index structured data from the SQL sources.
	res, err := engine.QueryCtx(ctx, "SELECT id, name, region, segment FROM crm.customers")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		ix.IndexRow("crm", "customers", row[0].Display(), row, res.Columns)
	}
	res, err = engine.QueryCtx(ctx, "SELECT inv_id, cust_id, amount, status FROM billing.invoices")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		ix.IndexRow("billing", "invoices", row[0].Display(), row, res.Columns)
	}

	// Index the unstructured support notes.
	notes := docstore.New("notes", nil)
	if err := workload.GenerateDocuments(notes, 2000, 500, 11); err != nil {
		log.Fatal(err)
	}
	ix.IndexStore(notes)
	fmt.Printf("indexed %d entries across 3 sources\n\n", ix.Len())

	// Jamie searches a customer.
	target := workload.CustomerName(7)
	fmt.Printf("query: %q\n", target)
	hits := ix.Query(target, 12)
	for src, group := range search.BySource(hits) {
		fmt.Printf("\nfrom %s:\n", src)
		for _, h := range group {
			fmt.Printf("  %s\n", h.Describe())
		}
	}

	// Drill-down: a structured hit identifies its row; follow it back
	// into the federation with SQL.
	fmt.Printf("\ndrill-down into invoices for %q:\n", target)
	res, err = engine.QueryCtx(ctx, fmt.Sprintf(`
		SELECT inv_id, amount, status FROM customer360 WHERE name = '%s' ORDER BY inv_id`, target))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  invoice %s: %s (%s)\n", row[0].Display(), row[1].Display(), row[2].Display())
	}

	// Drill-down into a document hit.
	for _, h := range hits {
		if h.Entry.Kind == search.KindDocument {
			doc, ok, err := notes.Get(ctx, h.Entry.Ref)
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				fmt.Printf("\ndocument %s: %s\n", doc.ID, doc.Body)
			}
			break
		}
	}
}

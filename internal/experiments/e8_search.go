package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/docstore"
	"repro/internal/netsim"
	"repro/internal/search"
	"repro/internal/workload"
)

// RunE8 reproduces §8's (Sikka) enterprise-search scenario: "Jamie needs to
// find all the information related to a customer ... orders ... service/
// support requests ... and other public information" — one keyword query
// must surface structured rows and unstructured documents from every
// source, and stay fast as the corpus grows.
func RunE8(ctx context.Context, scale Scale) (Table, error) {
	corpusSizes := []int{500, 2000}
	if scale == Full {
		corpusSizes = []int{1000, 5000, 20000}
	}
	t := Table{
		ID:            "E8",
		Title:         "Enterprise search across structured rows and documents",
		Claim:         `§8: "The goal of enterprise search is to enable search across documents, business objects and structured data in all the applications in an enterprise"`,
		ExpectedShape: "one query returns hits from every source type; coverage (sources hit) is full; latency grows sublinearly with corpus size",
		Columns:       []string{"corpus", "indexed", "hits", "sourceTypes", "latency"},
	}
	for _, docs := range corpusSizes {
		fed, err := workload.CRMOf(100)
		if err != nil {
			return t, err
		}
		ix := search.NewIndex()
		// Index structured rows from two sources.
		res, err := fed.Engine.QueryCtx(ctx, "SELECT id, name, region, segment FROM crm.customers")
		if err != nil {
			return t, err
		}
		for _, r := range res.Rows {
			ix.IndexRow("crm", "customers", r[0].Display(), r, res.Columns)
		}
		res, err = fed.Engine.QueryCtx(ctx, "SELECT inv_id, cust_id, amount, status FROM billing.invoices")
		if err != nil {
			return t, err
		}
		for _, r := range res.Rows {
			ix.IndexRow("billing", "invoices", r[0].Display(), r, res.Columns)
		}
		// Index the unstructured corpus.
		store := docstore.New("notes", nil)
		if err := workload.GenerateDocuments(store, docs, 100, 11); err != nil {
			return t, err
		}
		ix.IndexStore(store)

		// Jamie's query: a customer name. Coverage is judged over the
		// full hit set; a UI would page it per source.
		target := workload.CustomerName(7)
		latency := stopwatch(netsim.Wall)
		hits := ix.Query(target, 0)
		elapsed := latency()

		kinds := map[search.Kind]bool{}
		sources := map[string]bool{}
		for _, h := range hits {
			kinds[h.Entry.Kind] = true
			sources[h.Entry.Source] = true
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(docs),
			fmt.Sprint(ix.Len()),
			fmt.Sprint(len(hits)),
			fmt.Sprintf("%d kinds / %d sources", len(kinds), len(sources)),
			elapsed.Round(time.Microsecond).String(),
		})
	}
	t.Notes = "hits span KindRow (structured) and KindDocument (unstructured); drill-down uses the hit's source+ref"
	return t, nil
}

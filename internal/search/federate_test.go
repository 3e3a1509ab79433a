package search

import (
	"context"
	"testing"

	"repro/internal/workload"
)

func TestIndexFederationCrawlsEverySource(t *testing.T) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 40
	cfg.InvoicesPerCustomer = 2
	cfg.TicketsPerCustomer = 1
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	added, errs := IndexFederation(context.Background(), ix, fed.Engine)
	if len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	// 40 customers + 80 invoices + 40 tickets.
	if added != 160 || ix.Len() != 160 {
		t.Fatalf("added = %d, indexed = %d", added, ix.Len())
	}
	// A customer name finds its customer row from the crm source.
	hits := ix.Query(workload.CustomerName(3), 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	foundCRM := false
	for _, h := range hits {
		if h.Entry.Source == "crm" {
			foundCRM = true
		}
	}
	if !foundCRM {
		t.Errorf("crm row missing from hits: %+v", hits)
	}
	// Status tokens from billing rows are searchable.
	if hits := ix.Query("overdue", 5); len(hits) == 0 {
		t.Error("billing rows not indexed")
	}
}

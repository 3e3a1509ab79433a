package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
)

// TestConcurrentQueriesAndWrites hammers the mediator with parallel readers
// and writers; run with -race. Results are not asserted row-exactly (the
// data moves underneath), only that every query succeeds and returns
// well-formed rows.
func TestConcurrentQueriesAndWrites(t *testing.T) {
	e := newFederation(t)
	crmSrc, _ := e.Source("crm")
	crm := crmSrc.(*federation.RelationalSource)

	queries := []string{
		"SELECT name, SUM(amount) FROM customer360 GROUP BY name",
		"SELECT COUNT(*) FROM crm.customers WHERE region = 'east'",
		"SELECT c.name, i.status FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id",
		"SELECT cust_id FROM files.tickets WHERE severity >= 2",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := e.QueryCtx(context.Background(), queries[(g+i)%len(queries)])
				if err != nil {
					errs <- err
					return
				}
				for _, row := range res.Rows {
					if len(row) != len(res.Columns) {
						errs <- errRowShape
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			id := int64(1000 + i)
			if err := crm.Insert(context.Background(), "customers", datum.Row{
				datum.NewInt(id), datum.NewString("Load"), datum.NewString("west"),
			}); err != nil {
				errs <- err
				return
			}
			if _, err := crm.Delete(context.Background(), "customers", func(r datum.Row) bool {
				return r[0].Int() == id
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errRowShape = &rowShapeError{}

type rowShapeError struct{}

func (*rowShapeError) Error() string { return "row arity does not match columns" }

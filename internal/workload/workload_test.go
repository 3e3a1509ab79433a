package workload

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/docstore"
)

func TestBuildCRMDeterministic(t *testing.T) {
	cfg := DefaultCRM()
	cfg.Customers = 50
	a, err := BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT region, COUNT(*) AS n FROM crm.customers GROUP BY region ORDER BY region"
	ra, err := a.Engine.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Engine.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rows) != len(rb.Rows) {
		t.Fatal("row count diverged")
	}
	for i := range ra.Rows {
		if ra.Rows[i][1].Int() != rb.Rows[i][1].Int() {
			t.Errorf("seeded generation diverged at row %d", i)
		}
	}
}

func TestCRMShape(t *testing.T) {
	cfg := DefaultCRM()
	cfg.Customers = 40
	cfg.InvoicesPerCustomer = 3
	cfg.TicketsPerCustomer = 2
	f, err := BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Engine.QueryCtx(context.Background(), "SELECT COUNT(*) FROM billing.invoices")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 120 {
		t.Errorf("invoices = %v", r.Rows[0][0])
	}
	r, err = f.Engine.QueryCtx(context.Background(), "SELECT COUNT(*) FROM support.tickets")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 80 {
		t.Errorf("tickets = %v", r.Rows[0][0])
	}
	// The mediated view joins across sources.
	r, err = f.Engine.QueryCtx(context.Background(), "SELECT COUNT(*) FROM customer360")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 120 {
		t.Errorf("customer360 rows = %v", r.Rows[0][0])
	}
}

func TestBuildEmployees(t *testing.T) {
	cfg := DefaultEmployees()
	cfg.Employees = 30
	f, err := BuildEmployees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Engine.QueryCtx(context.Background(), "SELECT COUNT(*) FROM employee360")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 30 {
		t.Errorf("employee360 rows = %v", r.Rows[0][0])
	}
	// Query by different access paths — §4's point about views adapting.
	r, err = f.Engine.QueryCtx(context.Background(), "SELECT COUNT(*) FROM employee360 WHERE dept = 'sales'")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() <= 0 {
		t.Error("no sales employees generated")
	}
}

func TestGenerateDocuments(t *testing.T) {
	s := docstore.New("notes", nil)
	if err := GenerateDocuments(s, 25, 10, 3); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 25 {
		t.Errorf("docs = %d", s.Len())
	}
	// Some doc must mention a known customer token.
	if ids, _ := s.Search(context.Background(), "outage"); len(ids) == 0 {
		t.Error("topic tokens must be searchable")
	}
}

func TestDirtyName(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clean := CustomerName(3)
	zero := DirtyName(clean, 0, rng)
	if zero != clean {
		t.Errorf("severity 0 must be identity: %q", zero)
	}
	dirty := DirtyName(clean, 1, rng)
	if dirty == clean {
		t.Errorf("severity 1 should corrupt %q", clean)
	}
}

func TestCustomerNameDistinctness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		n := CustomerName(i)
		if seen[n] {
			t.Fatalf("duplicate name %q at %d", n, i)
		}
		seen[n] = true
	}
}

package core

import (
	"context"
	"strings"
	"testing"
)

func TestInSubqueryBasic(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 60)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// Invoices > 60: cust 1 (100), cust 2 (75) → Ann, Bob.
	if got := results(t, r); got != "Ann|Bob" {
		t.Errorf("got %q", got)
	}
}

func TestNotInSubquery(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices)
		ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// Customers 1,2,3 have invoices; 4 (Dee) does not.
	if got := results(t, r); got != "Dee" {
		t.Errorf("got %q", got)
	}
}

func TestInSubqueryEmptyResult(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers
		WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 0 {
		t.Errorf("empty IN must match nothing, got %v", r.Rows[0][0])
	}
	r, err = e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers
		WHERE id NOT IN (SELECT cust_id FROM billing.invoices WHERE amount > 1e9)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("empty NOT IN must match everything, got %v", r.Rows[0][0])
	}
}

func TestInSubqueryOverMediatedView(t *testing.T) {
	e := newFederation(t)
	r, err := e.QueryCtx(context.Background(), `SELECT COUNT(*) FROM crm.customers
		WHERE id IN (SELECT id FROM customer360 WHERE amount >= 75)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

func TestInSubqueryColumnArityError(t *testing.T) {
	e := newFederation(t)
	_, err := e.QueryCtx(context.Background(), `SELECT name FROM crm.customers
		WHERE id IN (SELECT cust_id, amount FROM billing.invoices)`)
	if err == nil || !strings.Contains(err.Error(), "one column") {
		t.Fatalf("multi-column IN subquery must error, got %v", err)
	}
}

func TestInSubqueryRoundTripSQL(t *testing.T) {
	// The AST rendering of IN-subqueries must re-parse.
	e := newFederation(t)
	q := "SELECT name FROM crm.customers WHERE (id IN (SELECT cust_id FROM billing.invoices))"
	if _, err := e.QueryCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/opt"
)

// TestOptimizerEquivalenceRandomQueries generates random queries over the
// test federation and checks that every optimizer/executor configuration
// returns exactly the same multiset of rows. This is the metamorphic test
// that keeps pushdown, pruning, join reordering and semi-join honest.
func TestOptimizerEquivalenceRandomQueries(t *testing.T) {
	e := newFederation(t)
	rng := rand.New(rand.NewSource(20050614))
	gen := queryGenerator{rng: rng}

	configs := []QueryOptions{
		{},                 // everything on, sequential
		{Parallel: true},   // everything on, parallel
		{NoSemiJoin: true}, // no semi-join
		{Optimizer: opt.Options{NoFilterPushdown: true}},
		{Optimizer: opt.Options{NoProjectionPrune: true}},
		{Optimizer: opt.Options{NoJoinReorder: true}},
		{Optimizer: opt.Options{NoRemotePushdown: true}},
		{Optimizer: opt.Options{
			NoFilterPushdown: true, NoProjectionPrune: true,
			NoJoinReorder: true, NoRemotePushdown: true,
		}},
	}

	const queries = 60
	for qi := 0; qi < queries; qi++ {
		sql := gen.next()
		var want string
		var wantErr bool
		for ci, qo := range configs {
			res, err := e.QueryOptsCtx(context.Background(), sql, qo)
			if ci == 0 {
				wantErr = err != nil
				if err == nil {
					want = canonicalRows(res)
				}
				continue
			}
			if (err != nil) != wantErr {
				t.Fatalf("query %q: config %d error mismatch: %v", sql, ci, err)
			}
			if err != nil {
				continue
			}
			if got := canonicalRows(res); got != want {
				t.Fatalf("query %q: config %d diverged\nbase: %s\ngot:  %s", sql, ci, want, got)
			}
		}
		if wantErr {
			t.Fatalf("generator produced an invalid query: %q", sql)
		}
	}
}

// canonicalRows renders a result as a sorted multiset (ORDER BY is not part
// of the generated queries, so row order is not guaranteed).
func canonicalRows(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		lines[i] = strings.Join(parts, ",")
	}
	sort.Strings(lines)
	return strings.Join(lines, "|")
}

// queryGenerator produces random valid queries over the newFederation
// schema: crm.customers(id,name,region), billing.invoices(cust_id,amount,
// status), files.tickets(ticket_id,cust_id,severity).
type queryGenerator struct {
	rng *rand.Rand
	n   int
}

func (g *queryGenerator) next() string {
	g.n++
	switch g.rng.Intn(5) {
	case 0:
		return g.singleTable()
	case 1:
		return g.twoWayJoin()
	case 2:
		return g.aggregate()
	case 3:
		return g.threeWayJoin()
	default:
		return g.viewQuery()
	}
}

func (g *queryGenerator) custPred() string {
	preds := []string{
		"c.id > %d",
		"c.id <= %d",
		"c.region = 'east'",
		"c.region <> 'west'",
		"c.name LIKE 'A%%'",
		"c.id IN (1, 3, %d)",
		"c.id BETWEEN 1 AND %d",
	}
	p := preds[g.rng.Intn(len(preds))]
	if strings.Contains(p, "%d") {
		return fmt.Sprintf(p, g.rng.Intn(5))
	}
	return p
}

func (g *queryGenerator) invPred() string {
	preds := []string{
		"i.amount > %d",
		"i.amount <= %d",
		"i.status = 'paid'",
		"i.status <> 'open'",
	}
	p := preds[g.rng.Intn(len(preds))]
	if strings.Contains(p, "%d") {
		return fmt.Sprintf(p, 10+g.rng.Intn(100))
	}
	return p
}

func (g *queryGenerator) singleTable() string {
	return fmt.Sprintf("SELECT c.id, c.name FROM crm.customers c WHERE %s AND %s",
		g.custPred(), g.custPred())
}

func (g *queryGenerator) twoWayJoin() string {
	join := "JOIN"
	if g.rng.Intn(3) == 0 {
		join = "LEFT JOIN"
	}
	where := ""
	if g.rng.Intn(2) == 0 && join == "JOIN" {
		where = " WHERE " + g.invPred()
	} else if g.rng.Intn(2) == 0 {
		where = " WHERE " + g.custPred()
	}
	return fmt.Sprintf(`SELECT c.name, i.amount, i.status FROM crm.customers c
		%s billing.invoices i ON c.id = i.cust_id%s`, join, where)
}

func (g *queryGenerator) threeWayJoin() string {
	return fmt.Sprintf(`SELECT c.name, i.amount, tk.severity
		FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		JOIN files.tickets tk ON tk.cust_id = c.id
		WHERE %s`, g.custPred())
}

func (g *queryGenerator) aggregate() string {
	aggs := []string{"COUNT(*)", "SUM(i.amount)", "AVG(i.amount)", "MIN(i.amount)", "MAX(i.amount)", "COUNT(DISTINCT i.status)"}
	agg := aggs[g.rng.Intn(len(aggs))]
	having := ""
	if g.rng.Intn(2) == 0 {
		having = " HAVING COUNT(*) >= 1"
	}
	return fmt.Sprintf(`SELECT c.region, %s FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE %s GROUP BY c.region%s`, agg, g.invPred(), having)
}

func (g *queryGenerator) viewQuery() string {
	return fmt.Sprintf("SELECT name, amount FROM customer360 WHERE amount > %d", g.rng.Intn(120))
}

package cluster

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// spreadSeed finds a seed that puts crm, billing and support on exactly
// two nodes of a 3-node ring and returns it with the node that owns none
// of them: a coordinator there ships every fetch to a peer, to two
// different peers within one query.
func spreadSeed(t *testing.T) (seed uint64, coordinator int) {
	t.Helper()
	for seed := uint64(0); seed < 256; seed++ {
		owned := make([]bool, 3)
		for _, o := range Owners(Config{Nodes: 3, Seed: seed}, "crm", "billing", "support") {
			owned[o] = true
		}
		free, used := -1, 0
		for n, ok := range owned {
			if ok {
				used++
			} else {
				free = n
			}
		}
		if used == 2 {
			return seed, free
		}
	}
	t.Fatal("no seed spreads crm/billing/support over two of three nodes in 256 tries")
	return 0, 0
}

// TestFragmentRowsDieWithTheirQuery: a peer copies each fragment's rows
// into the coordinator's query scratch, so they live exactly as long as
// the coordinator's query. Three nodes, every source on a node other than
// the coordinator, two or three peer fragments per query prefetched
// concurrently under {Parallel, Adaptive}: each statement's answer equals
// a single engine's, and a held Result still renders byte for byte the
// same after 12 later queries have taken and overwritten the pooled
// scratches, the coordinator's and the peers'. Fragment rows left in the
// owner's scratch would be recycled while the coordinator still reads
// them; a Result without the coordinator's own copy would alias its
// recycled scratch.
func TestFragmentRowsDieWithTheirQuery(t *testing.T) {
	ctx := context.Background()
	seed, coordID := spreadSeed(t)
	c, f := buildCRMCluster(t, 1500, 3, seed)
	coord := c.Node(coordID).Engine()

	stmts := []string{
		`SELECT c.id, c.name, i.inv_id, i.amount FROM crm.customers c
		   JOIN billing.invoices i ON c.id = i.cust_id
		   WHERE c.region = 'west' AND i.status = 'overdue' ORDER BY c.id, i.inv_id`,
		`SELECT c.id, c.segment, tk.ticket_id, tk.severity FROM crm.customers c
		   JOIN support.tickets tk ON tk.cust_id = c.id
		   WHERE c.region = 'east' ORDER BY c.id, tk.ticket_id`,
		`SELECT c.id, i.inv_id, i.status, tk.ticket_id FROM crm.customers c
		   JOIN billing.invoices i ON c.id = i.cust_id
		   JOIN support.tickets tk ON tk.cust_id = c.id
		   WHERE c.segment = 'smb' AND tk.severity = 4 ORDER BY c.id, i.inv_id, tk.ticket_id`,
		workload.FanOutSQL + " ORDER BY c.region",
	}
	qo := core.QueryOptions{Parallel: true, Adaptive: true}
	run := func(sql string) *core.Result {
		t.Helper()
		res, err := coord.QueryOptsCtx(ctx, sql, qo)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	for _, sql := range stmts { // plan cache, feedback store, scratch pools
		run(sql)
	}

	c.ResetInterNode()
	for i, sql := range stmts {
		one, err := f.Engine.QueryOptsCtx(ctx, sql, qo)
		if err != nil {
			t.Fatal(err)
		}
		want := rowsKey(one.Rows)
		if len(one.Rows) == 0 {
			t.Fatalf("statement %d answers no rows: the test would hold nothing", i)
		}
		held := run(sql)
		before := rowsKey(held.Rows)
		if again := rowsKey(run(sql).Rows); again != before {
			t.Errorf("statement %d: two warm runs answered differently", i)
		}
		for j := 0; j < 12; j++ {
			run(stmts[(i+1+j)%len(stmts)])
		}
		if after := rowsKey(held.Rows); after != before {
			t.Errorf("statement %d: the held result changed after later queries reused the scratch\nbefore:\n%.800s\nafter:\n%.800s", i, before, after)
		}
		if before != want {
			t.Errorf("statement %d: cluster answer differs from a single engine's\ncluster:\n%.800s\nsingle:\n%.800s", i, before, want)
		}
	}
	if m := c.InterNodeTotals(); m.RoundTrips < int64(2*len(stmts)) {
		t.Fatalf("%d inter-node round trips over %d statements: fragments did not cross to peers", m.RoundTrips, len(stmts))
	}
}

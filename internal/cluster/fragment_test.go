package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/plan"
)

// fragmentRecorder routes exactly as its node does and records every
// fragment a peer ran: the columns the fragment was shipped with and the
// width of each row the peer's re-optimized execution sent back.
type fragmentRecorder struct {
	*Node
	mu        sync.Mutex
	fragments int
	bad       []string
}

func (r *fragmentRecorder) RouteRemote(ctx context.Context, source string, subtree plan.Node) ([]datum.Row, bool, error) {
	rows, handled, err := r.Node.RouteRemote(ctx, source, subtree)
	if !handled || err != nil {
		return rows, handled, err
	}
	cols := subtree.Columns()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fragments++
	for _, row := range rows {
		if len(row) != len(cols) {
			r.bad = append(r.bad, fmt.Sprintf("%s: shipped %d columns, the peer returned %d", plan.Explain(subtree), len(cols), len(row)))
			break
		}
	}
	return rows, handled, err
}

// TestPeerFragmentsKeepTheirNarrowing: the owner of a shard re-optimizes
// every fragment it receives, and must execute one that returns exactly
// the columns it received — the coordinator's narrowing, projected above
// the source's filters, survives the peer's passes. Over the 16 statements
// of the cluster_semijoin benchmark pool (bloom-tier region probes and
// IN-list-tier region+segment probes, 2 nodes, 3000 customers), the
// inter-node bytes fall by at least a quarter against plans that narrowed
// each scan under its filter, and so shipped i.status, which only the
// source's predicate reads: those moved 311,222 B.
func TestPeerFragmentsKeepTheirNarrowing(t *testing.T) {
	const predicateColumnsShipped = 311222
	c, _ := buildCRMCluster(t, 3000, 2, splitSeed(t, 2))
	coordID := c.Owner("crm")
	rec := &fragmentRecorder{Node: c.Node(coordID)}
	coord := c.Node(coordID).Engine()
	coord.SetFetchRouter(rec)

	const join = "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "
	var stmts []string
	for _, region := range []string{"west", "east", "north", "south"} {
		stmts = append(stmts, join+fmt.Sprintf("c.region = '%s' AND i.status = 'overdue' AND i.amount > 10", region))
		for _, segment := range []string{"enterprise", "midmarket", "smb"} {
			stmts = append(stmts, join+fmt.Sprintf(
				"c.region = '%s' AND c.segment = '%s' AND i.status = 'overdue' AND i.amount > 10", region, segment))
		}
	}
	c.ResetInterNode()
	qo := core.QueryOptions{Parallel: true, Adaptive: true}
	for _, sql := range stmts {
		if _, err := coord.QueryOptsCtx(context.Background(), sql, qo); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	wire := c.InterNodeTotals().WireBytes
	t.Logf("%d fragments to the billing owner, %d inter-node bytes", rec.fragments, wire)

	if rec.fragments != len(stmts) {
		t.Errorf("%d fragments crossed to a peer, want one per statement (%d)", rec.fragments, len(stmts))
	}
	for _, b := range rec.bad {
		t.Error(b)
	}
	if wire*4 > predicateColumnsShipped*3 {
		t.Errorf("inter-node bytes %d, want at most 3/4 of %d", wire, predicateColumnsShipped)
	}
}

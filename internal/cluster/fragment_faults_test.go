package cluster

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// TestPeerPartialFragmentFailsTheFetch: a peer that runs shipped fragments
// under AllowPartial and loses a source answers without that source's rows.
// That is not the fragment's answer, so the coordinator must see its fetch
// fail and apply its own policy: without AllowPartial the query fails,
// naming the source, as a single engine's does; with it, the query degrades
// and says so. Taking the owner's rows as complete answered the count below
// with [[0]], not partial, no error.
func TestPeerPartialFragmentFailsTheFetch(t *testing.T) {
	ctx := context.Background()
	c, f := buildCRMClusterCfg(t, 200, Config{Nodes: 2, Seed: splitSeed(t, 2),
		Fragment: core.QueryOptions{AllowPartial: true}})
	coord := c.Node(c.Owner("crm")).Engine()
	f.Billing.Link().SetDown(true)

	const count = `SELECT COUNT(*) AS n FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`
	if _, err := f.Engine.QueryOptsCtx(ctx, count, core.QueryOptions{}); err == nil || !strings.Contains(err.Error(), "billing") {
		t.Fatalf("single engine with billing down: err = %v, want a billing failure", err)
	}
	res, err := coord.QueryOptsCtx(ctx, count, core.QueryOptions{})
	if err == nil {
		t.Fatalf("coordinator answered %v (partial=%v) without billing's rows; want the query to fail", res.Rows, res.Partial)
	}
	var pe *core.PartialFragmentError
	if !errors.As(err, &pe) || !slices.Equal(pe.Skipped, []string{"billing"}) || !strings.Contains(err.Error(), "billing") {
		t.Fatalf("coordinator error %q does not carry the owner's skipped billing source", err)
	}

	// A monotone statement (a plain join of rows) under the coordinator's
	// own AllowPartial: degraded, and flagged as such.
	const join = `SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`
	res, err = coord.QueryOptsCtx(ctx, join, core.QueryOptions{AllowPartial: true})
	if err != nil {
		t.Fatalf("AllowPartial coordinator: %v", err)
	}
	if !res.Partial || !slices.Contains(res.SkippedSources, "billing") {
		t.Fatalf("AllowPartial coordinator: partial=%v skipped=%v, want billing flagged", res.Partial, res.SkippedSources)
	}
}

// gatherRecorder routes as its node does and counts fetches whose result
// rows the inter-node link lost on the way back.
type gatherRecorder struct {
	*Node
	mu   sync.Mutex
	lost int
}

func (r *gatherRecorder) RouteRemote(ctx context.Context, source string, subtree plan.Node) ([]datum.Row, bool, error) {
	rows, handled, err := r.Node.RouteRemote(ctx, source, subtree)
	if err != nil && strings.Contains(err.Error(), "gather") {
		r.mu.Lock()
		r.lost++
		r.mu.Unlock()
	}
	return rows, handled, err
}

// TestLostGathersRetryCleanly injects seeded failures on the inter-node
// link of a 2-node cluster and gives the coordinator a retry policy. A
// peer copies a fragment's rows into the coordinator's query scratch
// before they cross the link, so a lost gather leaves a copy there until
// the query ends; the retried fetch must answer from its own copy. Over
// several fault seeds, every cross-shard answer (bloom- and IN-list-tier
// semi-joins, and a join probing with every customer) equals a single
// engine's, and the queries did retry lost gathers.
func TestLostGathersRetryCleanly(t *testing.T) {
	ctx := context.Background()
	c, f := buildCRMCluster(t, 3000, 2, splitSeed(t, 2))
	coordID := c.Owner("crm")
	rec := &gatherRecorder{Node: c.Node(coordID)}
	coord := c.Node(coordID).Engine()
	coord.SetFetchRouter(rec)
	link := c.EdgeLink(coordID, c.Owner("billing"))

	const join = "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "
	stmts := []string{
		join + "c.region = 'west' AND i.status = 'overdue' AND i.amount > 10 ORDER BY c.name, i.amount",
		join + "c.region = 'east' AND c.segment = 'smb' AND i.status = 'overdue' AND i.amount > 10 ORDER BY c.name, i.amount",
		join + "i.status = 'open' AND i.amount > 900 ORDER BY c.name, i.amount",
	}
	qo := core.QueryOptions{Parallel: true, Adaptive: true}
	want := make([]string, len(stmts))
	for i, sql := range stmts {
		res, err := f.Engine.QueryOptsCtx(ctx, sql, qo)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rowsKey(res.Rows)
	}

	qo.Retry = exec.RetryPolicy{Attempts: 8}
	for seed := int64(1); seed <= 4; seed++ {
		link.SetFaultProfile(&netsim.FaultProfile{Seed: seed, FailureRate: 0.3})
		rec.lost = 0
		retries := 0
		for round := 0; round < 4; round++ {
			for i, sql := range stmts {
				res, err := coord.QueryOptsCtx(ctx, sql, qo)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, sql, err)
				}
				if got := rowsKey(res.Rows); got != want[i] {
					t.Fatalf("seed %d: %s: %d rows differ from the single engine's answer", seed, sql, len(res.Rows))
				}
				retries += res.Retries["billing"]
			}
		}
		if retries == 0 || rec.lost == 0 {
			t.Errorf("seed %d: %d retries, %d lost gathers: the faults did not exercise a lost gather", seed, retries, rec.lost)
		}
		t.Logf("seed %d: %d retries, %d lost gathers", seed, retries, rec.lost)
	}
	link.SetFaultProfile(nil)
}

package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/workload"
)

func TestRingDeterministicUnderFixedSeed(t *testing.T) {
	cfg := Config{Nodes: 4, Seed: 42}
	a := Owners(cfg, "crm", "billing", "support", "hr", "facilities", "it")
	b := Owners(cfg, "crm", "billing", "support", "hr", "facilities", "it")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("owners differ between identical configs: %v vs %v", a, b)
		}
	}
	// A different seed must eventually move something (not a constant map).
	moved := false
	for seed := uint64(1); seed < 16 && !moved; seed++ {
		c := Owners(Config{Nodes: 4, Seed: seed}, "crm", "billing", "support", "hr", "facilities", "it")
		for i := range a {
			if a[i] != c[i] {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Error("ownership never changed across 15 seeds; ring ignores seed")
	}
}

func TestRingOwnershipIsCaseInsensitiveAndInRange(t *testing.T) {
	r := newRing(3, 0, 7)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("source-%d", i)
		n := r.owner(key)
		if n < 0 || n >= 3 {
			t.Fatalf("owner(%q) = %d out of range", key, n)
		}
		if up := r.owner("SOURCE-" + fmt.Sprint(i)); up != n {
			t.Errorf("case-sensitive ownership: %q -> %d, upper -> %d", key, n, up)
		}
	}
}

func TestRingSpreadsKeysAcrossNodes(t *testing.T) {
	r := newRing(4, 0, 1)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[r.owner(fmt.Sprintf("table-%d", i))]++
	}
	for n, c := range counts {
		// With 64 vnodes/node a 1000-key sample lands every node well away
		// from zero; an unbalanced ring (single hash point) would fail.
		if c < 100 {
			t.Errorf("node %d owns only %d of 1000 keys: %v", n, c, counts)
		}
	}
}

// splitSeed finds a seed that puts crm and billing on different nodes of
// an n-node ring, so cross-shard traffic actually crosses nodes.
func splitSeed(t *testing.T, n int) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 256; seed++ {
		o := Owners(Config{Nodes: n, Seed: seed}, "crm", "billing")
		if o[0] != o[1] {
			return seed
		}
	}
	t.Fatal("no seed splits crm/billing in 256 tries")
	return 0
}

func buildCRMCluster(t *testing.T, customers, nodes int, seed uint64) (*Cluster, *workload.CRMFederation) {
	t.Helper()
	return buildCRMClusterCfg(t, customers, Config{Nodes: nodes, Seed: seed})
}

// buildCRMClusterCfg is buildCRMCluster under a full cluster Config.
func buildCRMClusterCfg(t *testing.T, customers int, ccfg Config) (*Cluster, *workload.CRMFederation) {
	t.Helper()
	cfg := workload.DefaultCRM()
	cfg.Customers = customers
	cfg.LinkLatency = 0
	f, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ccfg, func(int) (*core.Engine, error) {
		return f.NewEngine()
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func rowsKey(rows []datum.Row) string {
	s := ""
	for _, r := range rows {
		for _, d := range r {
			s += d.String() + "|"
		}
		s += "\n"
	}
	return s
}

func TestByteIdenticalResultsAcrossNodeCounts(t *testing.T) {
	queries := []string{
		`SELECT id, name, region, inv_id, amount, status FROM customer360
		   WHERE region = 'west' ORDER BY id, inv_id`,
		`SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM customer360
		   GROUP BY region ORDER BY region`,
		`SELECT c.id AS id, c.name AS name, t.severity AS severity
		   FROM crm.customers c JOIN support.tickets t ON c.id = t.cust_id
		   WHERE c.segment = 'enterprise' ORDER BY c.id, t.severity`,
	}
	var want []string
	for _, nodes := range []int{1, 2, 4} {
		seed := uint64(0)
		if nodes > 1 {
			seed = splitSeed(t, nodes)
		}
		c, _ := buildCRMCluster(t, 400, nodes, seed)
		for qi, q := range queries {
			res, err := c.Node(0).Engine().QueryOptsCtx(context.Background(), q, core.QueryOptions{})
			if err != nil {
				t.Fatalf("nodes=%d query %d: %v", nodes, qi, err)
			}
			got := rowsKey(res.Rows)
			if nodes == 1 {
				want = append(want, got)
				continue
			}
			if got != want[qi] {
				t.Errorf("nodes=%d query %d: results differ from single-node run", nodes, qi)
			}
		}
	}
}

func TestPeerOwnedShardsAreFilterCapable(t *testing.T) {
	c, _ := buildCRMCluster(t, 100, 2, splitSeed(t, 2))
	crmOwner := c.Owner("crm")
	other := 1 - crmOwner
	if c.Node(other).FilterCapable("crm") != true {
		t.Error("peer-owned shard must be filter-capable")
	}
	if c.Node(crmOwner).FilterCapable("crm") {
		t.Error("self-owned shard must report the source's own capability")
	}
}

// TestBloomShippingMovesFewerInterNodeBytes is the E18 regression guard:
// a cross-shard join under default (bloom/semi-join) shipping must move
// strictly fewer inter-node wire bytes than full-relation shipping, with
// identical results.
func TestBloomShippingMovesFewerInterNodeBytes(t *testing.T) {
	const customers = 4000 // west probe ≈ 1000 keys: past the IN-list cap, bloom ships
	c, _ := buildCRMCluster(t, customers, 2, splitSeed(t, 2))
	coord := c.Node(c.Owner("crm")).Engine()
	q := `SELECT id, name, amount, status FROM customer360
	        WHERE region = 'west' ORDER BY id, inv_id`

	c.ResetInterNode()
	full, err := coord.QueryOptsCtx(context.Background(), q, core.QueryOptions{NoSemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	fullWire := c.InterNodeTotals().WireBytes

	c.ResetInterNode()
	bloomed, err := coord.QueryOptsCtx(context.Background(), q, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bloomWire := c.InterNodeTotals().WireBytes

	if rowsKey(full.Rows) != rowsKey(bloomed.Rows) {
		t.Fatalf("shipping mode changed results: %d vs %d rows", len(full.Rows), len(bloomed.Rows))
	}
	if bloomWire >= fullWire {
		t.Fatalf("bloom shipping moved %dB inter-node, full-relation %dB — no reduction", bloomWire, fullWire)
	}
	if bloomWire*3 > fullWire {
		t.Errorf("bloom shipping %dB vs full %dB: reduction below 3x", bloomWire, fullWire)
	}
}

func TestSingleNodeClusterRoutesNothing(t *testing.T) {
	c, _ := buildCRMCluster(t, 200, 1, 0)
	c.ResetInterNode()
	if _, err := c.Node(0).Engine().QueryOptsCtx(context.Background(),
		`SELECT COUNT(*) AS n FROM customer360`, core.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := c.InterNodeTotals(); got.RoundTrips != 0 || got.WireBytes != 0 {
		t.Errorf("single-node cluster used inter-node links: %+v", got)
	}
	if c.Node(0).FilterCapable("crm") {
		t.Error("single node must not report peer filter capability")
	}
}

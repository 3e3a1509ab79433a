package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// RunE18 measures the sharded mediator cluster: §3 positions the EII
// engine as middleware that must scale to enterprise query volumes, and
// the scaling path for a mediator is the same as for the sources it
// federates — partition the catalog across nodes and ship only reduced
// data between them. The experiment has two phases. "ship" compares, on
// a two-node cluster whose crm and billing shards live on different
// nodes, how many inter-node wire bytes a cross-shard join moves under
// full-relation shipping, exact key-list (semi-join) shipping, and bloom
// shipping — including the crossover: key lists win while the probe side
// is small, blooms win past the IN-list cap. "scale" drives 1/2/4(/8)
// node clusters with the same open-loop multi-tenant mix over blocking
// links and reports completed-query throughput.
func RunE18(ctx context.Context, scale Scale) (Table, error) {
	t := Table{
		ID:            "E18",
		Title:         "Sharded mediator cluster: scatter-gather scaling and bloom/semi-join fragment shipping",
		Claim:         `§3: EII systems are "providing uniform access to a multitude of data sources" as shared enterprise middleware — one mediator process is a bottleneck, so the catalog partitions across nodes and cross-shard joins must ship reductions, not relations`,
		ExpectedShape: "bloom shipping moves >=3x fewer inter-node bytes than full-relation shipping at the 8000-row scale (key lists win below the cap); completed throughput grows monotonically from 1 to 4 nodes, until the shared source fleet — not the mediator tier — becomes the ceiling",
		Columns:       []string{"phase", "size/nodes", "mode", "rows/done", "p99", "interWire", "vs-base"},
	}

	if err := runE18Ship(ctx, scale, &t); err != nil {
		return t, err
	}
	if err := runE18Scale(ctx, scale, &t); err != nil {
		return t, err
	}
	t.Notes = "ship: 2-node cluster, crm and billing on different shards, coordinator at the crm owner; interWire counts only inter-node links (source links are charged identically in every mode); scale: open-loop Poisson mix (gold 60% / bronze 40%) against round-robin coordinators, per-node admission quotas, blocking links — past 4 nodes the fixed-bandwidth source links saturate, so adding mediators stops helping (the paper's sources-are-the-bottleneck regime)"
	return t, nil
}

// e18SplitSeed returns a ring seed that puts crm and billing on different
// nodes of a two-node ring, so the E1-shaped join crosses shards.
func e18SplitSeed(nodes int) (uint64, error) {
	for seed := uint64(0); seed < 256; seed++ {
		o := cluster.Owners(cluster.Config{Nodes: nodes, Seed: seed}, "crm", "billing")
		if o[0] != o[1] {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("e18: no seed splits crm/billing across %d nodes", nodes)
}

func runE18Ship(ctx context.Context, scale Scale, t *Table) error {
	sizes := []int{800, 4000}
	if scale == Full {
		sizes = []int{800, 2000, 8000}
	}
	query := `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' AND i.status = 'overdue'`

	seed, err := e18SplitSeed(2)
	if err != nil {
		return err
	}
	for _, n := range sizes {
		fed, err := workload.CRMOf(n)
		if err != nil {
			return err
		}
		c, err := cluster.New(cluster.Config{Nodes: 2, Seed: seed}, func(int) (*core.Engine, error) {
			return fed.NewEngine()
		})
		if err != nil {
			return err
		}
		coord := c.Node(c.Owner("crm")).Engine()

		modes := []struct {
			name string
			qo   core.QueryOptions
		}{
			{"full-relation", core.QueryOptions{NoSemiJoin: true}},
			{"key-list", core.QueryOptions{MaxSemiJoinKeys: 1 << 20}},
			{"bloom", core.QueryOptions{}},
		}
		var base int64
		for _, m := range modes {
			c.ResetInterNode()
			res, err := coord.QueryOptsCtx(ctx, query, m.qo)
			if err != nil {
				return err
			}
			inter := c.InterNodeTotals()
			if m.name == "full-relation" {
				base = inter.WireBytes
			}
			t.Rows = append(t.Rows, []string{
				"ship", fmt.Sprint(n), m.name,
				fmt.Sprint(len(res.Rows)), "-",
				fmtBytes(inter.WireBytes),
				ratio(float64(base), float64(inter.WireBytes)),
			})
		}
	}
	return nil
}

func runE18Scale(ctx context.Context, scale Scale, t *Table) error {
	nodeCounts := []int{1, 2, 4}
	cellDuration := 250 * time.Millisecond
	if scale == Full {
		nodeCounts = []int{1, 2, 4, 8}
		cellDuration = 1200 * time.Millisecond
	}
	const sql = "SELECT id, name, amount FROM customer360 WHERE id < 40"
	qo := core.QueryOptions{Parallel: true}

	// Measure per-node service time once on a single-node cluster, then
	// offer every cluster the same load: enough to saturate the largest,
	// so completed throughput tracks aggregate capacity.
	single, err := buildE18Cluster(1, 0)
	if err != nil {
		return err
	}
	service, err := serviceTime(ctx, single.Node(0).Engine(), sql)
	if err != nil {
		return err
	}
	// Per-node admission capacity is 6 (gold 4 + bronze 2).
	perNodeRate := 6 * float64(time.Second) / float64(service)
	maxNodes := nodeCounts[len(nodeCounts)-1]
	offered := perNodeRate * float64(maxNodes) * 1.2

	var baseDone int
	for _, nodes := range nodeCounts {
		seed := uint64(0)
		if nodes > 1 {
			s, err := e18SplitSeed(nodes)
			if err != nil {
				return err
			}
			seed = s
		}
		c, err := buildE18Cluster(nodes, seed)
		if err != nil {
			return err
		}
		rep := workload.RunOpenLoop(ctx, c, workload.OpenLoopConfig{
			Duration:       cellDuration,
			Seed:           418,
			MaxOutstanding: 1024,
			Loads: []workload.TenantLoad{
				{Tenant: "gold", Rate: offered * 0.6, SQL: sql, Options: qo},
				{Tenant: "bronze", Rate: offered * 0.4, SQL: sql, Options: qo},
			},
		})
		if nodes == nodeCounts[0] {
			baseDone = rep.Completed
		}
		t.Rows = append(t.Rows, []string{
			"scale", fmt.Sprint(nodes), "bloom",
			fmt.Sprint(rep.Completed),
			rep.P99.Round(100 * time.Microsecond).String(),
			fmtBytes(c.InterNodeTotals().WireBytes),
			ratio(float64(rep.Completed), float64(baseDone)),
		})
	}
	return nil
}

// buildE18Cluster assembles an n-node cluster over one blocking-link CRM
// fleet, with per-node gold/bronze admission quotas — E16's setup, sharded.
func buildE18Cluster(nodes int, seed uint64) (*cluster.Cluster, error) {
	// Sources two milliseconds away keep a query's service time mostly
	// blocked on the source links, so the nodes' admission slots stay the
	// ceiling on a busy host; at one millisecond the mediator's CPU and the
	// inter-node hops are so large a share that the 1- and 2-node cells
	// both measure the host's CPU instead.
	fed, err := blockingCRM(2 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		Nodes: nodes,
		Seed:  seed,
		// Mediator nodes share a rack; the sources they federate are
		// milliseconds away. If the inter-node hop cost rivals the source
		// hop, sharding trades every saved source-side byte for
		// coordination latency and the scaling experiment measures the
		// wrong bottleneck.
		LinkLatency: 150 * time.Microsecond,
		RealSleep:   true,
	}, func(int) (*core.Engine, error) {
		engine, err := fed.NewEngine()
		if err != nil {
			return nil, err
		}
		return engine, admitGoldBronze(engine)
	})
}

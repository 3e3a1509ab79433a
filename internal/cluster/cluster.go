// Package cluster shards a mediator across N nodes (E18). Each node is a
// full core.Engine over the same source fleet; the catalog is partitioned
// by consistent hashing over source names. Any node can coordinate a
// query: it compiles and optimizes once, and every remote fragment whose
// source shard belongs to a peer is shipped to the owner over a metered
// inter-node link — request first (envelope plus any semi-join key list
// or bloom filter riding the fragment), result rows back. The links
// record bytes-on-the-wire per edge, which is what the scaling experiment
// reports: full-relation vs key-list vs bloom shipping.
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/plan"
)

// Config sizes and parameterizes a cluster.
type Config struct {
	// Nodes is the mediator node count (>= 1).
	Nodes int
	// VirtualNodes per node on the consistent-hash ring (0 = 64).
	VirtualNodes int
	// Seed determinizes ring placement: same (Nodes, VirtualNodes, Seed)
	// always yields the same catalog partition.
	Seed uint64
	// LinkLatency is the one-way latency of each inter-node link
	// (0 = 500µs: nodes sit in one datacenter, closer than sources).
	LinkLatency time.Duration
	// LinkBandwidth is inter-node link bandwidth in bytes/second
	// (0 = 1 GB/s).
	LinkBandwidth float64
	// SerializationFactor inflates inter-node wire bytes (0 = 1: nodes
	// speak a binary protocol, unlike §3's XML source links).
	SerializationFactor float64
	// RealSleep makes inter-node transfers block wall-clock time, for
	// throughput experiments driven by an open loop.
	RealSleep bool
	// Fragment is the QueryOptions peer nodes execute shipped fragments
	// under (tenant, retry policy, semi-join tuning).
	Fragment core.QueryOptions
}

// Cluster is a set of mediator nodes over one shared source fleet.
type Cluster struct {
	cfg   Config
	ring  *ring
	nodes []*Node
	// edges[i][j] is the link between nodes i and j; the same *Link is
	// stored at [j][i] (one bidirectional channel per unordered pair),
	// and the diagonal is nil.
	edges [][]*netsim.Link
	next  atomic.Uint64
}

// Node is one mediator of the cluster.
type Node struct {
	id      int
	cluster *Cluster
	engine  *core.Engine
}

// New builds an n-node cluster. build constructs node i's engine — all
// nodes must be mediators over the same source fleet with the same views
// (workload.CRMFederation.NewEngine is the canonical builder). New
// installs each node's fetch router, which retires any plans cached in
// the supplied engines.
func New(cfg Config, build func(node int) (*core.Engine, error)) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = 500 * time.Microsecond
	}
	if cfg.LinkBandwidth <= 0 {
		cfg.LinkBandwidth = 1 << 30
	}
	if cfg.SerializationFactor <= 0 {
		cfg.SerializationFactor = 1
	}
	c := &Cluster{
		cfg:  cfg,
		ring: newRing(cfg.Nodes, cfg.VirtualNodes, cfg.Seed),
	}
	c.nodes = make([]*Node, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		engine, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: building node %d: %w", i, err)
		}
		c.nodes[i] = &Node{id: i, cluster: c, engine: engine}
	}
	c.edges = make([][]*netsim.Link, cfg.Nodes)
	for i := range c.edges {
		c.edges[i] = make([]*netsim.Link, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			l := netsim.NewLink(cfg.LinkLatency, cfg.LinkBandwidth, cfg.SerializationFactor)
			l.RealSleep = cfg.RealSleep
			c.edges[i][j] = l
			c.edges[j][i] = l
		}
	}
	for _, n := range c.nodes {
		n.engine.SetFetchRouter(n)
	}
	return c, nil
}

// Owners previews the catalog partition a Config produces without
// building engines: Owners(cfg, "crm", "billing") reports which node
// would own each source. Experiments use it to pick a Seed that splits
// a known fleet across nodes.
func Owners(cfg Config, keys ...string) []int {
	r := newRing(cfg.Nodes, cfg.VirtualNodes, cfg.Seed)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = r.owner(k)
	}
	return out
}

// Nodes reports the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Owner reports which node owns the shard of source.
func (c *Cluster) Owner(source string) int { return c.ring.owner(source) }

// Coordinator picks the node the next query should enter at,
// round-robin — any node can coordinate any query.
func (c *Cluster) Coordinator() *Node {
	return c.nodes[c.next.Add(1)%uint64(len(c.nodes))]
}

// QueryOptsCtx runs one query through a round-robin-chosen coordinator.
// Together with AdmissionStats it makes a Cluster a workload.Target, so
// the open-loop harness drives clusters and single engines identically.
func (c *Cluster) QueryOptsCtx(ctx context.Context, sql string, qo core.QueryOptions) (*core.Result, error) {
	return c.Coordinator().engine.QueryOptsCtx(ctx, sql, qo)
}

// AdmissionStats aggregates every node's per-tenant admission stats.
func (c *Cluster) AdmissionStats() []core.TenantAdmissionStats {
	var out []core.TenantAdmissionStats
	for _, n := range c.nodes {
		out = append(out, n.engine.AdmissionStats()...)
	}
	return out
}

// EdgeLink returns the link between nodes i and j (nil when i == j).
func (c *Cluster) EdgeLink(i, j int) *netsim.Link { return c.edges[i][j] }

// EdgeMetric is one inter-node link's accounting.
type EdgeMetric struct {
	A, B    int // A < B
	Metrics netsim.Metrics
}

// Edges snapshots every inter-node link's metrics, ordered by (A, B).
func (c *Cluster) Edges() []EdgeMetric {
	var out []EdgeMetric
	for i := 0; i < len(c.nodes); i++ {
		for j := i + 1; j < len(c.nodes); j++ {
			out = append(out, EdgeMetric{A: i, B: j, Metrics: c.edges[i][j].Metrics()})
		}
	}
	return out
}

// InterNodeTotals sums transfer accounting across all inter-node links.
// Source-link traffic is not included; core.Result.Network reports that.
func (c *Cluster) InterNodeTotals() netsim.Metrics {
	var total netsim.Metrics
	for _, e := range c.Edges() {
		total.Add(e.Metrics)
	}
	return total
}

// ResetInterNode zeroes all inter-node link accounting.
func (c *Cluster) ResetInterNode() {
	for i := 0; i < len(c.nodes); i++ {
		for j := i + 1; j < len(c.nodes); j++ {
			c.edges[i][j].Reset()
		}
	}
}

// ID reports the node's cluster-wide ID.
func (n *Node) ID() int { return n.id }

// Engine exposes the node's mediator engine.
func (n *Node) Engine() *core.Engine { return n.engine }

// FilterCapable implements core.FetchRouter: a peer-owned shard executes
// at a full mediator, which absorbs shipped key predicates regardless of
// the underlying source's own capabilities. Self-owned shards report
// false — their capability is whatever the source wrapper says.
func (n *Node) FilterCapable(source string) bool {
	return len(n.cluster.nodes) > 1 && n.cluster.Owner(source) != n.id
}

// RouteRemote implements core.FetchRouter: fragments for peer-owned
// shards ship to the owner, execute there, and only result rows return.
// Fragments for self-owned shards are declined (handled=false) so the
// engine's normal local fetch path — breaker, retry, source wrapper —
// runs unchanged.
func (n *Node) RouteRemote(ctx context.Context, source string, subtree plan.Node) ([]datum.Row, bool, error) {
	owner := n.cluster.Owner(source)
	if owner == n.id || len(n.cluster.nodes) == 1 {
		return nil, false, nil
	}
	link := n.cluster.edges[n.id][owner]
	peer := n.cluster.nodes[owner]
	if err := n.SendFragment(ctx, link, subtree); err != nil {
		return nil, true, fmt.Errorf("cluster: node %d -> %d fragment send: %w", n.id, owner, err)
	}
	rows, err := peer.engine.RunFragment(ctx, subtree, n.cluster.cfg.Fragment)
	if err != nil {
		return nil, true, fmt.Errorf("cluster: node %d executing for %d: %w", owner, n.id, err)
	}
	rows, err = n.GatherRows(ctx, link, rows)
	if err != nil {
		return nil, true, fmt.Errorf("cluster: node %d <- %d gather: %w", n.id, owner, err)
	}
	return rows, true, nil
}

// SendFragment charges the inter-node link for shipping a plan fragment
// to a peer: the request envelope plus any semi-join key-list or bloom
// payload the fragment carries, its IN-list parameters weighed with the
// values of the template the query runs, which ride ctx's scratch
// (federation.RequestSizeWith). A failed transfer (injected fault,
// partition) loses the fragment; the error surfaces into the
// coordinator's retry pipeline.
func (n *Node) SendFragment(ctx context.Context, link *netsim.Link, fragment plan.Node) error {
	_, err := link.Transfer(ctx, federation.RequestSizeWith(fragment, exec.ScratchFrom(ctx).Params()))
	return err
}

// GatherRows charges the inter-node link for result rows returning to
// the coordinator and hands them back. A failed transfer loses the rows:
// the caller gets the link's error and nothing else.
func (n *Node) GatherRows(ctx context.Context, link *netsim.Link, rows []datum.Row) ([]datum.Row, error) {
	bytes := 0
	for _, r := range rows {
		bytes += datum.RowWireSize(r)
	}
	if _, err := link.Transfer(ctx, bytes); err != nil {
		return nil, err
	}
	return rows, nil
}

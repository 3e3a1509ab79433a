package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// stmt is one SQL statement of a schedule. Statements of the three
// fixed-pool workloads are interned per fixture, so every occurrence
// shares one reference answer; ad-hoc statements are made fresh and
// checked lazily.
type stmt struct {
	sql string
	// ordered statements end in a total ORDER BY: their digest depends on
	// row order. The others compare as multisets, because a naive and an
	// optimized plan may legitimately emit join output in different order.
	ordered bool
	want    *answer
}

// answer is what the reference engine returned for a statement.
type answer struct {
	rows   int
	digest uint64
}

// workloadSpec describes one workload: its fixture, the shape of a cycle
// and how one round's schedule is drawn from the seeded generator. Round
// sizes are fixed by count and chosen so a round takes one to two seconds
// on the reference box; a run repeats rounds until its time is up.
type workloadSpec struct {
	name string
	why  string
	// customers sizes the CRM fixture (4 invoices and 2 tickets each).
	customers int
	// nodes > 1 runs the workload through a cluster of that many mediators.
	nodes int
	// perCycle is the number of queries a cycle issues in order; the
	// position within the cycle is the query's class (q1, q2, q3).
	perCycle int
	// warmCycles is the untimed, fully verified warm-up that ends set-up.
	warmCycles int
	// checkEvery: the row digest of every checkEvery-th timed cycle is
	// compared with the reference engine's.
	checkEvery int
	// churnEvery > 0 precedes every churnEvery-th query with a DefineView
	// and DropView of an unrelated view (a catalog version bump that
	// retires every cached plan).
	churnEvery int
	// pool lists every distinct statement of a fixed-pool workload so
	// set-up can compute all reference answers; nil for ad-hoc statements.
	pool func(fx *fixture) []*stmt
	// round draws one round's statements from fx.rng, perCycle per cycle.
	round func(fx *fixture) []*stmt
}

var workloads = []*workloadSpec{
	{
		name:       "portal_point",
		why:        "one cached point-lookup template over 120 customers, every query a plan-cache hit: per-query fixed costs (front end, bind, core, two tiny fetches) are all there is; optimizer and cluster idle",
		customers:  120,
		perCycle:   1,
		warmCycles: 1080,
		checkEvery: 16,
		pool:       portalPool,
		round:      portalRound,
	},
	{
		name:       "analyst_scan",
		why:        "three E14 report queries over 4000 customers (view agg, 14k-row join, three-source fan-out agg): mediator operators and source scans dominate, the front end is noise",
		customers:  4000,
		perCycle:   3,
		warmCycles: 5,
		checkEvery: 16,
		pool:       analystPool,
		round:      analystRound,
	},
	{
		name:       "cluster_semijoin",
		why:        "cross-shard E18 joins on a 2-node cluster over 3000 customers, two bloom-tier and one IN-list-tier per cycle: the only inter-node shipping and source-side key filtering",
		customers:  3000,
		nodes:      2,
		perCycle:   3,
		warmCycles: 8,
		checkEvery: 16,
		pool:       clusterPool,
		round:      clusterRound,
	},
	{
		name:       "adhoc_churn",
		why:        "uniform draws from 5080 selective statement shapes (5x the plan cache) over 500 customers with periodic catalog writes: misses, evictions, invalidations, plan.Build and opt.Optimize dominate",
		customers:  500,
		perCycle:   1,
		warmCycles: 512,
		checkEvery: 64,
		churnEvery: 2048,
		round:      adhocRound,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- portal_point ---

const portalPasses = 4 // passes over the 1080 literal pairs per round

var portalFloors = []int{100, 150, 200, 250, 300, 350, 400, 450, 500}

func portalStmt(fx *fixture, id, floor int) *stmt {
	return fx.intern(fmt.Sprintf(
		"SELECT name, amount, status FROM customer360 WHERE id = %d AND amount > %d", id, floor+fx.floorShift))
}

func portalPool(fx *fixture) []*stmt {
	var out []*stmt
	for id := 1; id <= fx.w.customers; id++ {
		for _, floor := range portalFloors {
			out = append(out, portalStmt(fx, id, floor))
		}
	}
	return out
}

// portalRound visits every (id, floor) pair the same number of times, in
// seeded order, so per-query counts do not depend on how many rounds a
// run fits in.
func portalRound(fx *fixture) []*stmt {
	out := make([]*stmt, 0, portalPasses*len(fx.pool))
	for p := 0; p < portalPasses; p++ {
		out = append(out, fx.pool...)
	}
	shuffle(fx.rng, out)
	return out
}

// --- analyst_scan ---

const (
	analystAgg = `SELECT region, status, COUNT(*) AS n, SUM(amount) AS total FROM customer360 GROUP BY region, status`
	analystFan = `SELECT c.region, COUNT(*) AS n, SUM(i.amount) AS total FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id JOIN support.tickets tk ON tk.cust_id = c.id GROUP BY c.region`

	analystRepeats = 6 // cycles per floor per round
)

var analystFloors = []int{100, 110, 120, 130, 140}

func analystJoin(fx *fixture, floor int) *stmt {
	return fx.intern(fmt.Sprintf(
		"SELECT c.region, c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > %d", floor+fx.floorShift))
}

func analystPool(fx *fixture) []*stmt {
	out := []*stmt{fx.intern(analystAgg), fx.intern(analystFan)}
	for _, floor := range analystFloors {
		out = append(out, analystJoin(fx, floor))
	}
	return out
}

func analystRound(fx *fixture) []*stmt {
	floors := make([]int, 0, analystRepeats*len(analystFloors))
	for r := 0; r < analystRepeats; r++ {
		floors = append(floors, analystFloors...)
	}
	shuffle(fx.rng, floors)
	agg, fan := fx.intern(analystAgg), fx.intern(analystFan)
	out := make([]*stmt, 0, 3*len(floors))
	for _, floor := range floors {
		out = append(out, agg, analystJoin(fx, floor), fan)
	}
	return out
}

// --- cluster_semijoin ---

var (
	crmRegions  = []string{"west", "east", "north", "south"}
	crmSegments = []string{"enterprise", "midmarket", "smb"}
	crmStatuses = []string{"paid", "open", "overdue"}
)

const clusterJoin = "SELECT c.name, i.amount FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id WHERE "

// clusterRegion probes with a quarter of the customers (~750 keys): past
// plan.DefaultSemiJoinKeyCap, so the keys ship as a bloom filter.
func clusterRegion(fx *fixture, region string) *stmt {
	return fx.intern(clusterJoin + fmt.Sprintf(
		"c.region = '%s' AND i.status = 'overdue' AND i.amount > %d", region, 10+fx.floorShift))
}

// clusterSegment probes with a twelfth (~250 keys): an exact IN-list.
func clusterSegment(fx *fixture, region, segment string) *stmt {
	return fx.intern(clusterJoin + fmt.Sprintf(
		"c.region = '%s' AND c.segment = '%s' AND i.status = 'overdue' AND i.amount > %d", region, segment, 10+fx.floorShift))
}

func clusterPool(fx *fixture) []*stmt {
	var out []*stmt
	for _, r := range crmRegions {
		out = append(out, clusterRegion(fx, r))
		for _, s := range crmSegments {
			out = append(out, clusterSegment(fx, r, s))
		}
	}
	return out
}

// clusterRound makes 24 cycles: every ordered pair of distinct regions
// twice for the two bloom queries and every (region, segment) twice for
// the IN-list query, each list in seeded order.
func clusterRound(fx *fixture) []*stmt {
	var pairs, keyed [][2]string
	for rep := 0; rep < 2; rep++ {
		for _, a := range crmRegions {
			for _, b := range crmRegions {
				if a != b {
					pairs = append(pairs, [2]string{a, b})
				}
			}
			for _, s := range crmSegments {
				keyed = append(keyed, [2]string{a, s})
			}
		}
	}
	shuffle(fx.rng, pairs)
	shuffle(fx.rng, keyed)
	out := make([]*stmt, 0, 3*len(pairs))
	for i := range pairs {
		out = append(out,
			clusterRegion(fx, pairs[i][0]),
			clusterRegion(fx, pairs[i][1]),
			clusterSegment(fx, keyed[i][0], keyed[i][1]))
	}
	return out
}

// --- adhoc_churn ---

const adhocCyclesPerRound = 2000

var (
	viewColumns = []string{"id", "name", "region", "segment", "inv_id", "amount", "status"}
	// inv_id is unique, so every ORDER BY below is total.
	adhocOrders = []string{"", " ORDER BY inv_id", " ORDER BY inv_id DESC",
		" ORDER BY amount, inv_id", " ORDER BY amount DESC, inv_id"}
)

const adhocPredicates = 8

// adhocShapes is the number of distinct normalized statements adhocRound
// draws from: column subsets x predicates x orderings.
var adhocShapes = (1<<len(viewColumns) - 1) * adhocPredicates * len(adhocOrders)

// adhocPredicate renders one of the selective predicate shapes with
// literals drawn from rng. Each touches at most a few dozen view rows.
func adhocPredicate(fx *fixture, rng *rand.Rand, shape int) string {
	id := 1 + rng.Intn(fx.w.customers)
	switch shape {
	case 0:
		return fmt.Sprintf("id = %d", id)
	case 1:
		return fmt.Sprintf("id = %d AND amount > %d", id, 100+50*rng.Intn(9))
	case 2:
		return fmt.Sprintf("inv_id = %d", 1+rng.Intn(4*fx.w.customers))
	case 3:
		return fmt.Sprintf("id = %d AND status = '%s'", id, crmStatuses[rng.Intn(len(crmStatuses))])
	case 4:
		return fmt.Sprintf("id BETWEEN %d AND %d", id, id+3)
	case 5:
		return fmt.Sprintf("id < %d AND region = '%s'", 4+rng.Intn(8), crmRegions[rng.Intn(len(crmRegions))])
	case 6:
		return fmt.Sprintf("id IN (%d, %d)", id, 1+rng.Intn(fx.w.customers))
	default:
		return fmt.Sprintf("inv_id < %d AND amount <= %d", 8+rng.Intn(16), 300+100*rng.Intn(7))
	}
}

func adhocRound(fx *fixture) []*stmt {
	rng := fx.rng
	out := make([]*stmt, adhocCyclesPerRound)
	var cols []string
	for i := range out {
		mask := 1 + rng.Intn(1<<len(viewColumns)-1)
		cols = cols[:0]
		for c, name := range viewColumns {
			if mask&(1<<c) != 0 {
				cols = append(cols, name)
			}
		}
		pred := adhocPredicate(fx, rng, rng.Intn(adhocPredicates))
		order := adhocOrders[rng.Intn(len(adhocOrders))]
		out[i] = &stmt{
			sql:     "SELECT " + strings.Join(cols, ", ") + " FROM customer360 WHERE " + pred + order,
			ordered: order != "",
		}
	}
	return out
}

func shuffle[T any](rng *rand.Rand, s []T) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

package workload

// Fixtures and statements more than one measurement surface drives — the
// experiment tables, the root microbenchmarks and their allocation guards —
// so each is spelled once.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/schema"
)

// NaiveOptimizer turns off every logical rewrite: fetch whole tables and
// assemble at the mediator — §3's "pull everything into the processor"
// strategy and §4's hand-written fixed plan.
func NaiveOptimizer() opt.Options {
	return opt.Options{NoFilterPushdown: true, NoProjectionPrune: true, NoJoinReorder: true, NoRemotePushdown: true}
}

// BlockLinks makes every source link really sleep for its simulated
// transfer time, capped at maxSleep per transfer, so wall-clock
// measurements see fetch overlap, queueing and cancellation.
func (f *CRMFederation) BlockLinks(maxSleep time.Duration) {
	for _, s := range f.Sources() {
		s.Link().RealSleep = true
		s.Link().MaxSleep = maxSleep
	}
}

// PortalSQL renders the i-th query of the templated portal workload: one
// point lookup through the mediated view with rotating constants, the
// shape a portal re-issues for whichever customer the agent pulled up.
// Compilation (view unfolding + optimization) is a large share of such a
// request, so this is where plan reuse pays (E13, E17).
func PortalSQL(i int) string {
	return fmt.Sprintf(
		"SELECT name, amount, status FROM customer360 WHERE id = %d AND amount > %d",
		1+i%97, 100+50*(i%9))
}

// The three report statements of E14: a mediator-side filter + join over
// two sources, an aggregation through the mediated view, and the
// three-source fan-out join E7 times.
const (
	ReportJoinSQL = `SELECT c.region, c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id WHERE i.amount > 120`

	ReportAggSQL = `SELECT region, status, COUNT(*) AS n, SUM(amount) AS total
		FROM customer360 GROUP BY region, status`

	FanOutSQL = `SELECT c.region, COUNT(*) AS n, SUM(i.amount) AS total
		FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		JOIN support.tickets tk ON tk.cust_id = c.id
		GROUP BY c.region`
)

// StaleStatsSQL joins the accurate relation of BuildStaleStats to the
// mis-estimated one on a selective probe.
const StaleStatsSQL = `SELECT u.name, e.action FROM crm.users u
	JOIN logs.events e ON u.id = e.user_id
	WHERE u.tier = 't7' ORDER BY u.name, e.action`

// BuildStaleStats assembles E20's adversarial federation: crm.users (5000
// rows) carries accurate statistics, while logs.events published its
// statistics when it held 50 rows and has since grown to eventRows without
// a refresh. A static optimizer trusts the catalog — events looks smaller
// than the probe's key set, so semi-join reduction never pays on paper —
// and ships the whole relation on every query. With refreshed set, events
// republishes after loading and the catalog tells the truth.
func BuildStaleStats(eventRows int, refreshed bool) (*core.Engine, error) {
	mkLink := func() *netsim.Link { return netsim.NewLink(2*time.Millisecond, 1e6, 1) }

	crm := federation.NewRelationalSource("crm", federation.FullSQL(), mkLink())
	users, err := crm.CreateTable(schema.MustTable("users", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "tier", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 5000; i++ {
		if err := users.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("user-%04d", i)),
			datum.NewString(fmt.Sprintf("t%d", i%50)),
		}); err != nil {
			return nil, err
		}
	}
	crm.RefreshStats()

	logs := federation.NewRelationalSource("logs", federation.FullSQL(), mkLink())
	events, err := logs.CreateTable(schema.MustTable("events", []schema.Column{
		{Name: "user_id", Kind: datum.KindInt},
		{Name: "action", Kind: datum.KindString},
	}))
	if err != nil {
		return nil, err
	}
	for i := 0; i < eventRows; i++ {
		if i == 50 {
			logs.RefreshStats() // stats freeze here: 50 rows, 50 distinct user_ids
		}
		if err := events.Insert(datum.Row{
			datum.NewInt(int64(i%5000) + 1),
			datum.NewString(fmt.Sprintf("action-%05d-payload-payload-payload", i)),
		}); err != nil {
			return nil, err
		}
	}
	if refreshed {
		logs.RefreshStats()
	}

	e := core.New()
	for _, s := range []federation.Source{crm, logs} {
		if err := e.Register(s); err != nil {
			return nil, err
		}
	}
	return e, nil
}

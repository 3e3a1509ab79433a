package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/workload"
)

// RunE1 reproduces §3's (Bitton) pushdown argument: the naive strategy
// ("pull out the relevant data from all the data sources into an Xquery
// processor and process it entirely there") ships whole tables; pushdown
// with local reduction ships only what the query needs; converting rows to
// XML "increas[es the] size about 3 times" on top. At the second size of
// the sweep the table also ablates the optimizer one rule at a time, so
// each rule's share of the saving is a row: the no-* strategies are
// push+semijoin minus that one rule.
func RunE1(ctx context.Context, scale Scale) (Table, error) {
	sizes := []int{100, 400}
	if scale == Full {
		sizes = []int{100, 500, 2000, 8000}
	}
	t := Table{
		ID:            "E1",
		Title:         "Pushdown + local reduction vs pull-everything (and the XML tax)",
		Claim:         `§3: "a huge amount of data is moved across the network ... Each table would be converted to XML, increasing its size about 3 times" — vs "minimize the amount of data shipped for assembly by utilizing local reduction"`,
		ExpectedShape: "optimized ships a small constant fraction; naive grows linearly with table size; XML triples naive wire bytes",
		Columns:       []string{"customers", "strategy", "shipped", "wire", "simTime", "vs-pushdown"},
	}
	query := `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 800`

	for _, n := range sizes {
		type variant struct {
			name string
			xml  bool
			qo   core.QueryOptions
		}
		naive := core.QueryOptions{Optimizer: workload.NaiveOptimizer()}
		variants := []variant{
			{"pushdown", false, core.QueryOptions{NoSemiJoin: true}},
			{"push+semijoin", false, core.QueryOptions{}},
			{"naive", false, naive},
			{"naive+xml", true, naive},
		}
		if n == sizes[1] {
			for _, a := range []struct {
				name string
				off  opt.Options
			}{
				{"no-filterpush", opt.Options{NoFilterPushdown: true}},
				{"no-projprune", opt.Options{NoProjectionPrune: true}},
				{"no-reorder", opt.Options{NoJoinReorder: true}},
				{"no-remotepush", opt.Options{NoRemotePushdown: true}},
				{"no-semijoin", opt.Options{NoSemiJoin: true}},
			} {
				variants = append(variants, variant{a.name, false, core.QueryOptions{Optimizer: a.off}})
			}
		}
		var base int64
		for _, v := range variants {
			cfg := workload.DefaultCRM()
			cfg.Customers = n
			cfg.LinkLatency = 2 * time.Millisecond
			if v.xml {
				cfg.SerializationFactor = 3
			}
			fed, err := workload.BuildCRM(cfg)
			if err != nil {
				return t, err
			}
			fed.Engine.ResetMetrics()
			res, err := fed.Engine.QueryOptsCtx(ctx, query, v.qo)
			if err != nil {
				return t, err
			}
			if v.name == "pushdown" {
				base = res.Network.BytesShipped
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), v.name,
				fmtBytes(res.Network.BytesShipped),
				fmtBytes(res.Network.WireBytes),
				res.Network.SimTime.Round(time.Microsecond).String(),
				ratio(float64(res.Network.BytesShipped), float64(base)),
			})
		}
	}
	t.Notes = "rows are identical across strategies; only movement differs"
	return t, nil
}

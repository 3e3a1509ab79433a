package opt

import (
	"reflect"
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// eagerEnv has customers(id, region) at crm and invoices(cust_id, amount,
// status) at billing, four invoices a customer, both full-SQL sources.
func eagerEnv() *fakeEnv {
	ev := env()
	ev.stats["crm.customers"] = &schema.TableStats{Rows: 1000, RowWidth: 24,
		Cols: []schema.ColStats{{Distinct: 1000}, {Distinct: 4}}}
	ev.stats["billing.invoices"] = &schema.TableStats{Rows: 4000, RowWidth: 36,
		Cols: []schema.ColStats{{Distinct: 1000}, {Distinct: 900}, {Distinct: 3}}}
	return ev
}

func eagerInput(t *testing.T) plan.Node {
	c := scan("crm", "customers", "id", "region")
	i := scan("billing", "invoices", "cust_id", "amount", "status")
	return plan.NewJoin(sqlparse.JoinInner, c, i, expr(t, "customers.id = invoices.cust_id"))
}

// TestEagerAggregateKeepsColumns: the rewritten aggregate answers under
// the original's column names and kinds — COUNT stays INT — so the
// HAVING, ORDER BY and select list above it resolve unchanged.
func TestEagerAggregateKeepsColumns(t *testing.T) {
	ev := eagerEnv()
	agg := plan.NewAggregate(eagerInput(t), []sqlparse.Expr{expr(t, "customers.region")}, []plan.AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "SUM", Arg: expr(t, "invoices.amount")},
		{Func: "MIN", Arg: expr(t, "invoices.status")},
		{Func: "COUNT", Arg: expr(t, "invoices.amount")},
	})
	out := eagerAggregate(agg, ev, newEstimator(ev))
	if out == plan.Node(agg) {
		t.Fatalf("not rewritten:\n%s", plan.Explain(out))
	}
	if !reflect.DeepEqual(out.Columns(), agg.Columns()) {
		t.Fatalf("columns %v, want %v", out.Columns(), agg.Columns())
	}
	if k := out.Columns()[1].Kind; k != datum.KindInt {
		t.Fatalf("COUNT(*) kind %v", k)
	}
	placed := placeRemotes(out, ev, Options{})
	partials := 0
	plan.Walk(placed, func(n plan.Node) {
		if r, ok := n.(*plan.Remote); ok && r.Source == "billing" {
			plan.Walk(r.Child, func(n plan.Node) {
				if a, ok := n.(*plan.Aggregate); ok {
					partials++
					if len(a.GroupBy) != 1 || a.GroupBy[0].SQL() != "invoices.cust_id" {
						t.Errorf("partial groups by %v, want the join key", a.GroupBy)
					}
				}
			})
		}
	})
	if partials != 1 {
		t.Fatalf("%d partial aggregates at billing:\n%s", partials, plan.Explain(placed))
	}
}

// TestEagerAggregateDeclinesWithoutAllocating: over plans it leaves alone
// — no aggregate, an aggregate over one source, an input a FilterOnly
// source holds, a partial result no smaller than its input — the step
// returns its input and allocates nothing, as every plan-cache miss pays
// for it.
func TestEagerAggregateDeclinesWithoutAllocating(t *testing.T) {
	ev := eagerEnv()
	filterOnly := eagerEnv()
	filterOnly.caps["billing"] = federation.FilterOnly()
	distinctKeys := eagerEnv()
	distinctKeys.stats["billing.invoices"].Cols[0].Distinct = 4000
	sum := []plan.AggSpec{{Func: "SUM", Arg: expr(t, "invoices.amount")}}
	byRegion := []sqlparse.Expr{expr(t, "customers.region")}
	for _, c := range []struct {
		name string
		env  *fakeEnv
		n    plan.Node
	}{
		{"join without aggregate", ev, &plan.Project{Input: eagerInput(t), Exprs: byRegion, Cols: []plan.ColMeta{{Name: "region"}}}},
		{"aggregate over one scan", ev, plan.NewAggregate(scan("billing", "invoices", "cust_id", "amount", "status"),
			[]sqlparse.Expr{expr(t, "invoices.status")}, sum)},
		{"FilterOnly source", filterOnly, plan.NewAggregate(eagerInput(t), byRegion, sum)},
		{"one invoice per key", distinctKeys, plan.NewAggregate(eagerInput(t), byRegion, sum)},
	} {
		c.n = pruneColumns(c.n) // as optimize runs it first
		est := newEstimator(c.env)
		if out := eagerAggregate(c.n, c.env, est); out != c.n {
			t.Errorf("%s: rewritten:\n%s", c.name, plan.Explain(out))
		}
		if _, ok := c.n.(*plan.Aggregate); ok {
			continue // a declined candidate costs its checks
		}
		if a := testing.AllocsPerRun(100, func() { eagerAggregate(c.n, c.env, est) }); a != 0 {
			t.Errorf("%s: %v allocations", c.name, a)
		}
	}
}

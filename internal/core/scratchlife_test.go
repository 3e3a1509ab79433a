package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestScratchOperatorsDieWithTheirQuery: the operator tree, its guards and
// their OpCards, a semi-join's reduced fetch and the sources' fragment
// runtimes all come from the query's pooled scratch. Query A — traced,
// explained, re-planned mid-query on the E20 stale-stats federation —
// must hand back a Result that owns everything it shows: after later
// queries on the same engine have taken the same pooled scratch and
// overwritten its slabs, A's rows, trace, explain output and plan render
// byte for byte as they did when A returned.
func TestScratchOperatorsDieWithTheirQuery(t *testing.T) {
	e := staleStatsFixture(t, 4000)
	ctx := context.Background()
	qo := QueryOptions{Parallel: true, Adaptive: true, Explain: true, Trace: true}
	a, err := e.QueryOptsCtx(ctx, staleStatsQuery, qo)
	if err != nil {
		t.Fatal(err)
	}
	if a.ReplanCount == 0 {
		t.Fatal("query A did not re-plan: the test would not cover the aborted attempt's operators")
	}
	if a.Trace == nil || a.ExplainOutput == "" || len(a.Rows) == 0 {
		t.Fatalf("query A returned no trace, explain output or rows")
	}
	render := func(res *Result) string {
		var b strings.Builder
		for _, r := range res.Rows {
			for _, d := range r {
				b.WriteString(d.Display() + "\t")
			}
			b.WriteByte('\n')
		}
		trace, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(trace)
		b.WriteString("\n" + res.ExplainOutput + "\n" + plan.Explain(res.Plan))
		return b.String()
	}
	before := render(a)

	// Query B: the same statement (now semi-joined, reusing A's shapes) and
	// others, each taking a pooled scratch — on this goroutine, the one A
	// put back — and filling it with operators of its own.
	for i := 0; i < 4; i++ {
		for _, sql := range []string{
			staleStatsQuery,
			"SELECT name FROM crm.users WHERE tier = 't11' ORDER BY name",
			"SELECT u.tier, COUNT(*) FROM crm.users u JOIN logs.events e ON u.id = e.user_id GROUP BY u.tier",
		} {
			if _, err := e.QueryOptsCtx(ctx, sql, qo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := render(a); after != before {
		t.Errorf("query A's result changed after later queries reused the scratch\nbefore:\n%.2000s\nafter:\n%.2000s", before, after)
	}
}

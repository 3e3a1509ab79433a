package experiments

import (
	"context"
	"fmt"

	"repro/internal/semantics"
)

// RunE3 reproduces §2's (Ashish) economics claim: schema-centric mediation
// costs grow (at best) linearly per source, while the schema-less approach
// shows economies of scale — the marginal cost of the next source falls as
// the federation grows.
func RunE3(_ context.Context, scale Scale) (Table, error) {
	ns := []int{1, 2, 4, 8, 16}
	if scale == Full {
		ns = []int{1, 2, 4, 8, 16, 32, 64}
	}
	t := Table{
		ID:            "E3",
		Title:         "Integration effort per added source: schema-centric vs schema-less",
		Claim:         `§2: "user costs increase directly (linearly) with the user benefit" for schema-centric mediation, vs "costs of adding newer sources decreasing significantly as the total number of sources integrated increases" for the schema-less approach`,
		ExpectedShape: "schema-centric marginal cost is flat-to-growing; schema-less marginal cost decreases; cumulative curves cross within the sweep",
		Columns:       []string{"sources", "centric-marginal", "less-marginal", "centric-total", "less-total"},
	}
	m := semantics.DefaultCostModel()
	const colsPerSource = 8
	const apps = 3
	for _, n := range ns {
		cm := m.SchemaCentricMarginal(n, colsPerSource)
		lm := m.SchemaLessMarginal(n, apps)
		ct := semantics.CumulativeCost(n, func(i int) float64 { return m.SchemaCentricMarginal(i, colsPerSource) })
		lt := semantics.CumulativeCost(n, func(i int) float64 { return m.SchemaLessMarginal(i, apps) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", cm),
			fmt.Sprintf("%.1f", lm),
			fmt.Sprintf("%.1f", ct),
			fmt.Sprintf("%.1f", lt),
		})
	}
	t.Notes = "effort units: 1 = authoring one column mapping; §2 concedes schema-centric mediation remains necessary where formal schemas are genuinely required"
	return t, nil
}

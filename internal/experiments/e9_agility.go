package experiments

import (
	"context"
	"fmt"

	"repro/internal/semantics"
)

// RunE9 answers §7's (Rosenthal) research question directly: "Provide ways
// to measure data integration agility ... We want a measure for predictable
// changes such as adding attributes or tables, and changing attribute
// representations." The measure here is mapping-touch counts and the
// derived agility score, compared across integration topologies.
func RunE9(_ context.Context, scale Scale) (Table, error) {
	ns := []int{4, 16}
	if scale == Full {
		ns = []int{4, 16, 64, 256}
	}
	t := Table{
		ID:            "E9",
		Title:         "Integration agility under schema evolution: mediated vs point-to-point",
		Claim:         `§7: "Provide ways to measure data integration agility, either analytically or by experiment ... for predictable changes such as adding attributes or tables, and changing attribute representations"`,
		ExpectedShape: "mediated: touched mappings stay constant (1) as the federation grows; point-to-point: touched mappings grow linearly; agility score diverges accordingly",
		Columns:       []string{"sources", "topology", "totalMappings", "touchedOnChange", "newOnAddSource", "agility"},
	}
	for _, n := range ns {
		for _, topo := range []semantics.Topology{semantics.Mediated, semantics.PointToPoint} {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n),
				topo.String(),
				fmt.Sprint(semantics.MappingsTotal(n, topo)),
				fmt.Sprint(semantics.MappingsTouchedOnSourceChange(n, topo)),
				fmt.Sprint(semantics.MappingsTouchedOnAddSource(n, topo)),
				fmt.Sprintf("%.3f", semantics.AgilityScore(n, topo)),
			})
		}
	}
	t.Notes = "touchedOnChange: one source changes an attribute representation; newOnAddSource: mappings authored to admit the next source"
	return t, nil
}

package experiments

import (
	"context"
	"repro/internal/matview"
)

// RunE11 checks the persist-vs-virtualize advisor against §3's (Bitton)
// guideline scenarios, including the precedence rule ("these virtualization
// guidelines should only be invoked after none of the persistence
// guidelines apply").
func RunE11(context.Context, Scale) (Table, error) {
	t := Table{
		ID:            "E11",
		Title:         "Persist-vs-virtualize advisor vs the paper's guidelines",
		Claim:         `§3: "Persist data to keep history ... Persist data when access to source systems is denied ... Virtualize data across multiple warehouse boundaries ... for special projects and to build prototypes ... data that must reflect up-to-the-minute operational facts"`,
		ExpectedShape: "every scenario decision matches the guideline; persistence guidelines take precedence",
		Columns:       []string{"scenario", "expected", "advised", "match", "reason"},
	}
	cases := []struct {
		name     string
		scenario matview.Scenario
		want     matview.Decision
	}{
		{"keep-history", matview.Scenario{NeedHistory: true}, matview.Persist},
		{"source-access-denied", matview.Scenario{SourceAccessDenied: true}, matview.Persist},
		{"conformed-dimension", matview.Scenario{SharedAcrossMarts: true}, matview.Virtualize},
		{"prototype-report", matview.Scenario{OneOffOrPrototype: true}, matview.Virtualize},
		{"live-dashboard", matview.Scenario{NeedsLiveData: true}, matview.Virtualize},
		// Precedence: history + live dashboard → persistence wins.
		{"history+live", matview.Scenario{NeedHistory: true, NeedsLiveData: true}, matview.Persist},
		{"denied+prototype", matview.Scenario{SourceAccessDenied: true, OneOffOrPrototype: true}, matview.Persist},
		// Cost fallback when no guideline fires.
		{"read-heavy-fallback", matview.Scenario{ReadsPerUpdate: 50}, matview.Persist},
		{"update-heavy-fallback", matview.Scenario{ReadsPerUpdate: 0.02}, matview.Virtualize},
	}
	for _, c := range cases {
		got, reason := matview.Advise(c.scenario)
		match := "yes"
		if got != c.want {
			match = "NO"
		}
		t.Rows = append(t.Rows, []string{
			c.name, c.want.String(), got.String(), match, reason,
		})
	}
	t.Notes = "the last two rows exercise the cost-based default the paper says customers wanted ('simple formulas') but vendors could not give them"
	return t, nil
}

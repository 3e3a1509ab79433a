package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/datum"
	"repro/internal/linkage"
	"repro/internal/workload"
)

// RunE5 reproduces §5's (Draper) record-correlation claim: heterogeneous
// sources rarely share a reliable join key, so a plain equi-join on the
// textual key collapses as corruption grows, while the stored join index
// built from similarity matching keeps recall high.
func RunE5(_ context.Context, scale Scale) (Table, error) {
	severities := []float64{0.0, 0.4, 0.8}
	n := 120
	if scale == Full {
		severities = []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0}
		n = 500
	}
	t := Table{
		ID:            "E5",
		Title:         "Equi-join on dirty keys vs similarity join index",
		Claim:         `§5: "if the data sources are really heterogeneous, the probability that they have a reliable join key is pretty small ... creating and storing what was essentially a join index between the sources"`,
		ExpectedShape: "equi-join recall falls toward 0 as corruption rises; the join index keeps recall high at modest precision cost",
		Columns:       []string{"corruption", "equiRecall", "indexRecall", "indexPrecision", "indexPairs"},
	}
	for _, sev := range severities {
		rng := rand.New(rand.NewSource(42))
		var left, right []linkage.Record
		var truth []linkage.Pair
		for i := 0; i < n; i++ {
			clean := workload.CustomerName(i)
			l := linkage.Record{Key: datum.NewInt(int64(i)), Text: clean}
			r := linkage.Record{Key: datum.NewInt(int64(10000 + i)), Text: workload.DirtyName(clean, sev, rng)}
			left = append(left, l)
			right = append(right, r)
			truth = append(truth, linkage.Pair{Left: l.Key, Right: r.Key})
		}
		// Baseline equi-join: exact string equality on the raw name.
		exact := 0
		rightByName := map[string]int{}
		for i, r := range right {
			rightByName[r.Text] = i
		}
		for i, l := range left {
			if ri, ok := rightByName[l.Text]; ok && ri == i {
				exact++
			}
		}
		equiRecall := float64(exact) / float64(n)

		ix := linkage.Build(left, right, linkage.DefaultConfig())
		prec, rec := ix.Quality(truth)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", sev),
			fmt.Sprintf("%.2f", equiRecall),
			fmt.Sprintf("%.2f", rec),
			fmt.Sprintf("%.2f", prec),
			fmt.Sprint(ix.Len()),
		})
	}
	t.Notes = "corruption applies case flips, punctuation and truncation to the right-hand key"
	return t, nil
}

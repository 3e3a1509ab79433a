package federation

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
)

// TestPreparedFragmentFollowsNewIndex: a fragment template prepared while
// its table had no index on the filtered column scans the whole table;
// after CreateIndex the next fetch of the same prepared fragment probes
// the new index, and every fetch answers as the bound fragment does.
func TestPreparedFragmentFollowsNewIndex(t *testing.T) {
	p := newDiffPair(t, 3, 400)
	scan := scanT("t")
	frag := filter(t, scan, "k = 3 AND f > 10")
	tmpl, vals := templateOf(frag)
	frags := exec.NewFragments(&plan.Remote{Source: "s", Child: tmpl})
	fetch := func() string {
		scratch := exec.GetScratch()
		defer exec.PutScratch(scratch)
		scratch.SetTemplate(vals, frags)
		return render(p.plain.ExecuteCtx(exec.WithScratch(context.Background(), scratch), tmpl))
	}
	want := render(p.plain.ExecuteCtx(context.Background(), frag))
	if got := fetch(); got != want { // prepares
		t.Fatalf("first fetch:\n%s\nwant:\n%s", got, want)
	}
	held := exec.GetScratch()
	defer exec.PutScratch(held)
	held.SetTemplate(vals, frags)
	slot := held.Fragment(tmpl)
	state, _ := slot.Take()
	f := state.(*preparedFragment)
	slot.Put(f)
	fed := func() int {
		rt := &fragmentRuntime{src: &p.plain.tableBacked, root: tmpl, params: vals, scans: f.scans}
		rows, err := rt.ScanTable(context.Background(), scan)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	if n, all := fed(), p.pt.Len(); n != all {
		t.Fatalf("without an index the prepared scan was fed %d of %d rows", n, all)
	}
	if err := p.pt.CreateIndex("by_k", []string{"k"}, false); err != nil {
		t.Fatal(err)
	}
	if n, all := fed(), p.pt.Len(); n >= all {
		t.Fatalf("after CreateIndex the prepared scan was fed %d of %d rows; want a probe", n, all)
	}
	if got := fetch(); got != want {
		t.Fatalf("fetch after CreateIndex:\n%s\nwant:\n%s", got, want)
	}
	if state, _ := slot.Take(); state != f {
		t.Fatal("the fetch after CreateIndex prepared the fragment anew")
	}
}

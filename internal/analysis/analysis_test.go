package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// fixtureLookup shares one export-data build (go list -export -deps) across
// every fixture test in the package.
var fixtureLookup struct {
	once sync.Once
	l    *ExportLookup
	err  error
}

func lookup(t *testing.T) *ExportLookup {
	t.Helper()
	fixtureLookup.once.Do(func() {
		fixtureLookup.l, fixtureLookup.err = NewExportLookup(moduleRoot(t), "./...")
	})
	if fixtureLookup.err != nil {
		t.Fatalf("building export data: %v", fixtureLookup.err)
	}
	return fixtureLookup.l
}

// loadFixture type-checks testdata/src/<name> under the claimed import
// path (which places the fixture inside or outside an analyzer's scope).
func loadFixture(t *testing.T, name, claimedPath string) *Package {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "src", name, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s: no files (%v)", name, err)
	}
	sort.Strings(files)
	pkg, err := lookup(t).CheckFiles(claimedPath, files)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)+)"`)

// wantsIn scans fixture files for `// want "substring"` markers and
// returns them keyed by file:line.
func wantsIn(t *testing.T, files []string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				key := fmt.Sprintf("%s:%d", name, line)
				wants[key] = append(wants[key], strings.ReplaceAll(m[1], `\"`, `"`))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture checks one analyzer against its fixture: every `// want`
// marker must be matched by a diagnostic on its line, and no diagnostic
// may appear on an unmarked line.
func runFixture(t *testing.T, a *Analyzer, fixture, claimedPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, claimedPath)
	diags := Run([]*Package{pkg}, []*Analyzer{a})

	var files []string
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if !seen[name] {
			seen[name] = true
			files = append(files, name)
		}
	}
	wants := wantsIn(t, files)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		ws := wants[key]
		matched := -1
		for i, w := range ws {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		wants[key] = append(ws[:matched], ws[matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("missing diagnostic at %s: want %q", key, w)
		}
	}
}

// expectClean asserts an analyzer produces nothing on a fixture loaded
// under a claimed path outside its scope (or inside its allowlist).
func expectClean(t *testing.T, a *Analyzer, fixture, claimedPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, claimedPath)
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}) {
		if d.Check != a.Name {
			continue // malformed-directive reports are not the analyzer's
		}
		t.Errorf("unexpected diagnostic under %s: %s", claimedPath, d)
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "determinism", "repro/internal/warehouse")
}

func TestDeterminismClockOwnerAllowlist(t *testing.T) {
	expectClean(t, Determinism, "determinism", "repro/internal/netsim")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, MapOrder, "maporder", "repro/internal/exec")
}

func TestMapOrderOutOfScope(t *testing.T) {
	expectClean(t, MapOrder, "maporder", "repro/internal/core")
}

// The retain check has two rules; each keeps its own fixture, and the
// retain fixture holds the production shapes that need both in one
// operator.

func TestArenaEscapeFixture(t *testing.T) {
	runFixture(t, Retain, "arenaescape", "repro/internal/analysis/fixture")
}

func TestBatchRetainFixture(t *testing.T) {
	runFixture(t, Retain, "batchretain", "repro/internal/analysis/fixture")
}

func TestRetainFixture(t *testing.T) {
	runFixture(t, Retain, "retain", "repro/internal/analysis/fixture")
}

func TestRetainInsideAllocatorPackages(t *testing.T) {
	// The allocator packages build arena-backed structures by design; the
	// check must not fire inside them.
	for _, fixture := range []string{"arenaescape", "batchretain", "retain"} {
		expectClean(t, Retain, fixture, "repro/internal/sqlparse")
	}
}

func TestSnapshotMutFixture(t *testing.T) {
	runFixture(t, SnapshotMut, "snapshotmut", "repro/internal/analysis/fixture")
}

func TestSnapshotMutInsideCatalog(t *testing.T) {
	expectClean(t, SnapshotMut, "snapshotmut", "repro/internal/catalog")
}

// TestSnapshotMutInsideFeedback: the feedback store (E20) is the second
// snapshot-owned package — its own EWMA updates must stay exempt.
func TestSnapshotMutInsideFeedback(t *testing.T) {
	expectClean(t, SnapshotMut, "snapshotmut", "repro/internal/feedback")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", "repro/internal/federation")
}

func TestErrDropOutOfScope(t *testing.T) {
	expectClean(t, ErrDrop, "errdrop", "repro/internal/opt")
}

// TestErrDropClusterFixture claims the fixture as the E18 cluster package
// so the inter-node transfer API (SendFragment/GatherRows/RunFragment)
// is covered by the same hit/miss markers.
func TestErrDropClusterFixture(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop", "repro/internal/cluster")
}

func TestCtxPropagateFixture(t *testing.T) {
	runFixture(t, CtxPropagate, "ctxpropagate", "repro/internal/exec")
}

func TestCtxPropagateApprovedRoot(t *testing.T) {
	expectClean(t, CtxPropagate, "ctxpropagate", "repro/cmd/eiiquery")
}

func TestAcquireReleaseFixture(t *testing.T) {
	runFixture(t, AcquireRelease, "acquirerelease", "repro/internal/analysis/fixture")
}

// TestCtxPropagateRule2OutOfScope checks that outside the fetch path only
// rule 1 applies: the ctx-dropping-wrapper finding disappears while the
// stray-root findings stay.
func TestCtxPropagateRule2OutOfScope(t *testing.T) {
	pkg := loadFixture(t, "ctxpropagate", "repro/internal/core")
	var roots int
	for _, d := range Run([]*Package{pkg}, []*Analyzer{CtxPropagate}) {
		if d.Check != CtxPropagate.Name {
			continue
		}
		if strings.Contains(d.Message, "severs cancellation") {
			t.Errorf("rule 2 fired outside the fetch path: %s", d)
		}
		roots++
	}
	if roots != 4 {
		t.Errorf("stray-root findings = %d, want 4", roots)
	}
}

// TestIgnoreDirectives pins down directive handling: malformed,
// reasonless and unknown-check directives are reported and waive nothing;
// a well-formed directive for a different check leaves the finding
// standing.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "directive", "repro/internal/analysis/fixture")
	diags := Run([]*Package{pkg}, []*Analyzer{Determinism})

	var malformed, unknown, findings, stale int
	for _, d := range diags {
		switch d.Check {
		case "directive":
			switch {
			case strings.Contains(d.Message, "malformed //lint:ignore"):
				malformed++
			case strings.Contains(d.Message, `unknown check "determinsm": valid checks are determinism, maporder,`):
				unknown++
			default:
				t.Errorf("directive diagnostic message = %q", d.Message)
			}
		case "determinism":
			findings++
		case "staleignore":
			stale++
			if !strings.Contains(d.Message, "stale //lint:ignore") {
				t.Errorf("staleignore diagnostic message = %q", d.Message)
			}
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}
	if malformed != 2 {
		t.Errorf("malformed directives reported = %d, want 2 (bare and reasonless)", malformed)
	}
	if unknown != 1 {
		t.Errorf("unknown-check directives reported = %d, want 1", unknown)
	}
	if findings != 4 {
		t.Errorf("determinism findings = %d, want 4 (none waived)", findings)
	}
	if stale != 1 {
		t.Errorf("stale directives reported = %d, want 1", stale)
	}
}

// TestStaleIgnoreRequiresRunningCheck: a directive is only judged stale
// while every check it names is in the run set — otherwise the finding
// it waives may simply not have been computed.
func TestStaleIgnoreRequiresRunningCheck(t *testing.T) {
	pkg := loadFixture(t, "directive", "repro/internal/analysis/fixture")
	for _, d := range Run([]*Package{pkg}, []*Analyzer{ErrDrop}) {
		if d.Check == "staleignore" {
			t.Errorf("stale reported while the named check was not running: %s", d)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("determinism, errdrop")
	if err != nil || len(two) != 2 || two[0].Name != "determinism" || two[1].Name != "errdrop" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("unknown check must error")
	}
}

// TestRepoIsClean is the gate the Makefile's lint target enforces: the
// full analyzer suite over the whole repository reports nothing.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern resolution looks broken", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("eiilint finding on main tree: %s", d)
	}
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, LockOrder, "lockorder", "repro/internal/analysis/fixture")
}

func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, GoroLeak, "goroleak", "repro/internal/analysis/fixture")
}

func TestExhaustiveFixture(t *testing.T) {
	runFixture(t, Exhaustive, "exhaustive", "repro/internal/analysis/fixture")
}

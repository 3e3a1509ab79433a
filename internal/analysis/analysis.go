// Package analysis is eiilint's analyzer framework: a small, stdlib-only
// (go/ast, go/parser, go/types, go/importer) harness for project-specific
// static checks over this repository.
//
// The engine's hardest-won properties are invisible to go vet:
// deterministic virtual time in netsim (E12 fault injection is only
// reproducible if no hot path reads the real clock), byte-identical
// parallel output from the E14 morsel exchange (no map-iteration order may
// leak into results), the batch validity contract ("containers reused,
// rows immutable") and query-lifetime arena memory (E17), COW
// catalog-snapshot immutability (E13), no silently dropped transfer
// errors, and end-to-end context propagation (E15 cancellation only works
// if no layer quietly reroots its work onto context.Background). Each
// analyzer in this package turns one of those invariants into a per-file,
// position-accurate diagnostic so `make lint` enforces them on every
// build.
//
// Findings can be waived inline with
//
//	//lint:ignore <check> <reason>
//
// placed on the flagged line or the line immediately above it. The reason
// is mandatory: an ignore documents *why* the invariant holds anyway (an
// owned scratch container, a deliberate wall-clock measurement), not just
// that someone wanted the warning gone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the check name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the check guards.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunGlobal, when set, runs once after every per-package pass with
	// the linked facts of the whole analysis universe. Cross-package
	// properties — the lock-order graph's cycles — live here.
	RunGlobal func(*GlobalPass)
}

// Pass carries everything an analyzer needs to inspect one package.
type Pass struct {
	// Path is the package's import path; analyzers scope themselves with
	// it (e.g. maporder only applies inside exec/opt/experiments).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the interprocedural summary of every package in this run
	// (call graph, lock sets, blocking/exit propagation). It is shared
	// and read-only during analysis.
	Facts *Facts

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// GlobalPass is the whole-universe view handed to Analyzer.RunGlobal.
type GlobalPass struct {
	Pkgs  []*Package
	Facts *Facts

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a global diagnostic at an already-resolved position.
// Each package owns its own FileSet, so global analyses report with the
// token.Position they captured alongside the fact.
func (g *GlobalPass) Reportf(pos token.Position, format string, args ...any) {
	*g.diags = append(*g.diags, Diagnostic{
		Check:   g.analyzer.Name,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Column, d.Message, d.Check)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		MapOrder,
		Retain,
		SnapshotMut,
		ErrDrop,
		CtxPropagate,
		AcquireRelease,
		LockOrder,
		GoroLeak,
		Exhaustive,
	}
}

// ByName resolves a comma-separated list of check names ("" means all).
// An unknown name is an error that lists every valid check, so a typo in
// `eiilint -checks` fails loudly instead of silently running nothing.
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a := lookupCheck(n)
		if a == nil {
			return nil, unknownCheck(n)
		}
		out = append(out, a)
	}
	return out, nil
}

// lookupCheck returns the analyzer named name in All(), or nil.
func lookupCheck(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// unknownCheck is the error for a check name absent from All().
func unknownCheck(name string) error {
	var valid []string
	for _, a := range All() {
		valid = append(valid, a.Name)
	}
	return fmt.Errorf("unknown check %q: valid checks are %s", name, strings.Join(valid, ", "))
}

// Run applies the analyzers to every package and returns the surviving
// diagnostics sorted by position. Findings waived by a well-formed
// //lint:ignore directive are dropped; malformed directives (missing
// check name or reason, or naming a check absent from All()) are reported
// under the "directive" pseudo-check, and well-formed directives that
// waived nothing — while every check they name was running — under
// "staleignore".
//
// Facts are computed over all packages first, then each package's
// per-package passes run in package order, and finally any global passes
// run once over the linked facts.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := ComputeFacts(pkgs)

	var raw []Diagnostic
	ignores := make([]*ignoreIndex, len(pkgs))
	for i, pkg := range pkgs {
		idx, bad := collectIgnores(pkg.Fset, pkg.Files)
		ignores[i] = idx
		raw = append(raw, bad...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{
				Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files,
				Pkg: pkg.Types, Info: pkg.Info, Facts: facts,
				analyzer: a, diags: &raw,
			})
		}
	}
	for _, a := range analyzers {
		if a.RunGlobal != nil {
			a.RunGlobal(&GlobalPass{Pkgs: pkgs, Facts: facts, analyzer: a, diags: &raw})
		}
	}

	// Filter waived findings through the merged directive index, marking
	// each directive that suppressed something as used.
	merged := mergeIgnores(ignores)
	var diags []Diagnostic
	for _, d := range raw {
		if d.Check == "directive" {
			diags = append(diags, d)
			continue
		}
		if dir := merged.match(d); dir != nil {
			dir.used = true
			continue
		}
		diags = append(diags, d)
	}

	// Stale-ignore detection: a well-formed directive that waived no
	// finding is dead weight — but only judge it when every check it
	// names actually ran ("*" only under the full suite), so partial
	// -checks runs don't cry stale on directives for absent analyzers.
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	fullSuite := len(running) >= len(All())
	for _, dir := range merged.all {
		if dir.used {
			continue
		}
		judgeable := true
		for check := range dir.checks {
			if check == "*" {
				judgeable = judgeable && fullSuite
			} else if !running[check] {
				judgeable = false
			}
		}
		if judgeable {
			diags = append(diags, Diagnostic{
				Check: "staleignore", Pos: dir.pos,
				Message: fmt.Sprintf("stale //lint:ignore %s: no finding on this line needs waiving; remove it", dir.names),
			})
		}
	}

	for i := range diags {
		diags[i].File = diags[i].Pos.Filename
		diags[i].Line = diags[i].Pos.Line
		diags[i].Column = diags[i].Pos.Column
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// ignoreDirective is one parsed //lint:ignore comment. It tracks whether
// it actually waived a finding so the engine can report stale waivers.
type ignoreDirective struct {
	checks map[string]bool // checks it waives; "*" waives all
	names  string          // original check list as written
	pos    token.Position
	used   bool
}

// ignoreIndex maps file → line → directive. A directive waives findings
// on its own line and on the line directly below it (the usual "comment
// above the statement" placement).
type ignoreIndex struct {
	byLine map[string]map[int]*ignoreDirective
	all    []*ignoreDirective
}

func (s *ignoreIndex) match(d Diagnostic) *ignoreDirective {
	pos := d.Pos
	lines, ok := s.byLine[pos.Filename]
	if !ok {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if dir, ok := lines[line]; ok {
			if dir.checks["*"] || dir.checks[d.Check] {
				return dir
			}
		}
	}
	return nil
}

// mergeIgnores unions per-package indexes into one (diagnostic positions
// are file-keyed, and filenames are disjoint across packages).
func mergeIgnores(idxs []*ignoreIndex) *ignoreIndex {
	out := &ignoreIndex{byLine: make(map[string]map[int]*ignoreDirective)}
	for _, idx := range idxs {
		if idx == nil {
			continue
		}
		for file, lines := range idx.byLine {
			if out.byLine[file] == nil {
				out.byLine[file] = lines
			} else {
				for line, dir := range lines {
					out.byLine[file][line] = dir
				}
			}
		}
		out.all = append(out.all, idx.all...)
	}
	sort.Slice(out.all, func(i, j int) bool {
		a, b := out.all[i].pos, out.all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

const ignorePrefix = "//lint:ignore"

// collectIgnores parses every //lint:ignore directive in the package.
// Directives must name a check (or "*") and give a non-empty reason;
// anything else is reported as a malformed directive. A name absent from
// All() is reported too: such a directive can never waive anything, and
// because its check never runs it would never be judged stale either.
func collectIgnores(fset *token.FileSet, files []*ast.File) (*ignoreIndex, []Diagnostic) {
	idx := &ignoreIndex{byLine: make(map[string]map[int]*ignoreDirective)}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Check: "directive", Pos: pos,
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\"",
					})
					continue
				}
				checks := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					checks[n] = true
					if n != "*" && lookupCheck(n) == nil {
						bad = append(bad, Diagnostic{
							Check: "directive", Pos: pos,
							Message: "//lint:ignore names an " + unknownCheck(n).Error(),
						})
					}
				}
				dir := &ignoreDirective{checks: checks, names: fields[0], pos: pos}
				if idx.byLine[pos.Filename] == nil {
					idx.byLine[pos.Filename] = make(map[int]*ignoreDirective)
				}
				idx.byLine[pos.Filename][pos.Line] = dir
				idx.all = append(idx.all, dir)
			}
		}
	}
	return idx, bad
}

// pkgIs reports whether path is one of the given import paths. Fixture
// packages under testdata claim real paths, so exact matching keeps scope
// rules honest for both.
func pkgIs(path string, paths ...string) bool {
	for _, p := range paths {
		if path == p {
			return true
		}
	}
	return false
}

// importedPkgName resolves a selector base to an imported package name
// ("time", "math/rand", ...) using type information, so renamed imports
// are still caught. It returns "" when x is not a package reference.
func importedPkgName(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// namedFrom reports whether t (after stripping pointers) is a named type
// declared in pkgPath, returning its name.
func namedFrom(t types.Type, pkgPath string) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	return obj.Name(), true
}

package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportLookup resolves import paths to compiler export data, produced
// once per load from `go list -export -deps`. It backs the go/importer
// lookup used both by Load and by the fixture-loading test harness.
type ExportLookup struct {
	exports map[string]string // import path → export data file
}

// NewExportLookup builds export data for patterns (and every dependency,
// stdlib included) rooted at dir.
func NewExportLookup(dir string, patterns ...string) (*ExportLookup, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	l := &ExportLookup{exports: make(map[string]string, len(pkgs))}
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return l, nil
}

// Importer returns a go/types importer reading the collected export data.
func (l *ExportLookup) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("eiilint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// CheckFiles parses and type-checks the given files as one package under
// the claimed import path. Test harnesses use the claimed path to place
// fixture packages inside an analyzer's scope.
func (l *ExportLookup) CheckFiles(claimedPath string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.Importer(fset)}
	tpkg, err := conf.Check(claimedPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("eiilint: type-checking %s: %v", claimedPath, err)
	}
	return &Package{
		Path: claimedPath, Fset: fset, Files: files,
		Types: tpkg, Info: info,
	}, nil
}

// Load resolves patterns (e.g. "./...") rooted at dir and returns every
// matched package parsed and type-checked. Test files are excluded: the
// invariants the analyzers guard are engine properties, and tests
// routinely (and legitimately) use wall clocks and discard errors.
//
// Every package reads dependency types from the shared export data, so
// each gets its own FileSet and type universe; output order is `go list`
// order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	lookup, err := NewExportLookup(dir, patterns...)
	if err != nil {
		return nil, err
	}
	targets, err := goList(dir, append([]string{"list",
		"-json=ImportPath,Export,Dir,GoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		names := make([]string, len(t.GoFiles))
		for j, f := range t.GoFiles {
			names[j] = filepath.Join(t.Dir, f)
		}
		pkg, err := lookup.CheckFiles(t.ImportPath, names)
		if err != nil {
			return nil, err
		}
		pkg.Dir = t.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

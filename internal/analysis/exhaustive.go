package analysis

// The exhaustive analyzer keeps the engine's closed sums actually
// closed. plan.Node and sqlparse.Expr are algebraic data types spelled
// as interfaces; the compiler cannot enforce that a type switch over
// them handles every variant, so adding a node (E18's KeyFilterExpr was
// the near-miss) silently falls through every switch that predates it —
// a fragment deparses without its filter, an optimizer rule skips a
// subtree, and the bug surfaces as wrong rows, not a crash.
//
// The rule: a type switch over a watched interface that binds the
// variant (`switch x := e.(type)`) must either list every concrete
// implementer (a case naming an interface covers all its implementers;
// `case nil` is exempt) or carry a guarding default — a non-empty
// default that calls something (panic, an error constructor, or a
// generic fallback such as a plan.MapInputs recursion). An empty
// default, or none, is a silent fall-through and gets reported. Bare
// switches (`switch e.(type)`) are exempt: they test membership of a
// few variants ("is this a literal or a param?") rather than dispatch
// on variant structure, so a new variant falling to their implicit
// "no" is the intended semantics.
//
// Both sums are sealed by an unexported marker method (plan.Node's
// node(), sqlparse.Expr's expr()), so every implementer is declared in the
// interface's defining package: its scope, read through this package's
// export data, is the complete list.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "type switches over plan.Node / sqlparse.Expr cover every concrete type or carry an erroring default",
	Run:  runExhaustive,
}

func runExhaustive(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sw, ok := n.(*ast.TypeSwitchStmt); ok {
				p.checkSwitch(sw)
			}
			return true
		})
	}
}

// watchedIfaces are the closed sums the exhaustive analyzer enforces:
// every type switch over one of these must cover all concrete
// implementers or carry a guarding default.
var watchedIfaces = []struct{ Pkg, Name string }{
	{"repro/internal/plan", "Node"},
	{"repro/internal/sqlparse", "Expr"},
}

// watchedIfaceKey returns "pkg/path.Name" when the named type is on the
// watchlist.
func watchedIfaceKey(obj *types.TypeName) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	for _, w := range watchedIfaces {
		if obj.Pkg().Path() == w.Pkg && obj.Name() == w.Name {
			return w.Pkg + "." + w.Name, true
		}
	}
	return "", false
}

// switchSubject extracts the expression a type switch dispatches on.
func switchSubject(sw *ast.TypeSwitchStmt) ast.Expr {
	var x ast.Expr
	switch a := sw.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			x = a.Rhs[0]
		}
	case *ast.ExprStmt:
		x = a.X
	}
	if ta, ok := x.(*ast.TypeAssertExpr); ok {
		return ta.X
	}
	return nil
}

func (p *Pass) checkSwitch(sw *ast.TypeSwitchStmt) {
	if _, binds := sw.Assign.(*ast.AssignStmt); !binds {
		return // bare membership test, not a dispatch
	}
	subject := switchSubject(sw)
	if subject == nil {
		return
	}
	st := p.TypeOf(subject)
	named, ok := st.(*types.Named)
	if !ok {
		return
	}
	key, watched := watchedIfaceKey(named.Obj())
	if !watched {
		return
	}

	iface, _ := named.Underlying().(*types.Interface)
	if iface == nil {
		return
	}
	// Enumerate implementers from the defining package's scope.
	var impls []types.Type
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		nt, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(nt) {
			continue
		}
		if types.Implements(nt, iface) {
			impls = append(impls, nt)
		} else if pt := types.NewPointer(nt); types.Implements(pt, iface) {
			impls = append(impls, pt)
		}
	}

	// Walk the clauses: collect case types, find a guarding default.
	var caseTypes []types.Type
	hasDefault, guarded := false, false
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			for _, s := range cc.Body {
				ast.Inspect(s, func(n ast.Node) bool {
					if _, ok := n.(*ast.CallExpr); ok {
						guarded = true
						return false
					}
					return true
				})
			}
			continue
		}
		for _, e := range cc.List {
			if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if t := p.TypeOf(e); t != nil {
				caseTypes = append(caseTypes, t)
			}
		}
	}
	if hasDefault && guarded {
		return
	}

	var missing []string
	for _, impl := range impls {
		covered := false
		for _, ct := range caseTypes {
			if types.AssignableTo(impl, ct) {
				covered = true
				break
			}
		}
		if !covered {
			missing = append(missing, shortClass(typeFullName(impl)))
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	what := "an empty default is a silent fall-through"
	if !hasDefault {
		what = "a new variant silently falls through"
	}
	p.Reportf(sw.Switch, "type switch on %s is missing cases for %s: %s — add the cases or a default that panics/errors",
		shortClass(key), strings.Join(missing, ", "), what)
}

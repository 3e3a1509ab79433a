package analysis

import (
	"go/ast"
	"go/types"
)

// errDropScope is where dropped transfer/fetch errors hide real failures:
// the fetch pipeline (exec), the wrappers charging links (federation,
// docstore), the link simulator itself (netsim), the breaker/retry and
// degradation paths (core), the replica provider (warehouse), and the
// sharded-cluster inter-node transfer path (cluster).
var errDropScope = []string{
	"repro/internal/exec",
	"repro/internal/federation",
	"repro/internal/netsim",
	"repro/internal/core",
	"repro/internal/docstore",
	"repro/internal/warehouse",
	"repro/internal/cluster",
}

// ErrDrop flags discarded errors from the round-trip calls (roundTripCalls:
// Transfer, ExecuteCtx, FetchRemote, and the cluster
// inter-node API SendFragment/GatherRows/RunFragment) and from
// error-returning Close calls in the federation fetch path: either a bare
// call statement or an assignment that blanks every error result.
// Swallowing such an error turns an injected outage into silently-missing
// rows, which is exactly the failure mode partial-result accounting exists
// to surface.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "no discarded errors from round trips (Transfer, ExecuteCtx, FetchRemote, the cluster inter-node API) or Close in the fetch path",
	Run:  runErrDrop,
}

func runErrDrop(p *Pass) {
	if !pkgIs(p.Path, errDropScope...) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					if name := p.watchedErrCall(call); name != "" {
						p.Reportf(call.Pos(),
							"result of %s discarded; a failed round trip must propagate (or be counted) — E12 fault injection depends on it",
							name)
					}
				}
			case *ast.AssignStmt:
				p.checkBlankedErr(x)
			case *ast.DeferStmt:
				if name := p.watchedErrCall(x.Call); name != "" {
					p.Reportf(x.Call.Pos(),
						"deferred %s discards its error; capture it in a named return or check it explicitly",
						name)
				}
			case *ast.GoStmt:
				if name := p.watchedErrCall(x.Call); name != "" {
					p.Reportf(x.Call.Pos(),
						"go %s discards its error; collect it through a channel or errgroup-style slot",
						name)
				}
			}
			return true
		})
	}
}

// watchedErrCall returns the callee name when call is a watched function
// that returns an error; "" otherwise.
func (p *Pass) watchedErrCall(call *ast.CallExpr) string {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return ""
	}
	if !roundTripCalls[name] && name != "Close" {
		return ""
	}
	if len(errResultIndexes(p.TypeOf(call))) == 0 {
		return ""
	}
	return name
}

// checkBlankedErr flags assignments where a watched call's error results
// are all assigned to the blank identifier.
func (p *Pass) checkBlankedErr(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name := p.watchedErrCall(call)
	if name == "" {
		return
	}
	errIdx := errResultIndexes(p.TypeOf(call))
	blanked := 0
	for _, i := range errIdx {
		if i >= len(as.Lhs) {
			return
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			blanked++
		}
	}
	if blanked == len(errIdx) && blanked > 0 {
		p.Reportf(as.Pos(),
			"error from %s assigned to _; a failed round trip must propagate (or be counted) — E12 fault injection depends on it",
			name)
	}
}

// errResultIndexes returns the result positions of type error for a call
// result type (a single value or a tuple).
func errResultIndexes(t types.Type) []int {
	if t == nil {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	switch x := t.(type) {
	case *types.Tuple:
		var out []int
		for i := 0; i < x.Len(); i++ {
			if types.Identical(x.At(i).Type(), errType) {
				out = append(out, i)
			}
		}
		return out
	default:
		if types.Identical(t, errType) {
			return []int{0}
		}
	}
	return nil
}

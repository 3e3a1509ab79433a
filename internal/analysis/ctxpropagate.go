package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxNeedScope is where a context hole breaks cancellation end-to-end:
// the executor (batch pulls, exchange workers, retry backoff), the source
// wrappers (result shipping), and the link simulator (blocking
// transfers). An exported function here that hides a context-taking call
// behind a context-free signature silently pins that work to
// context.Background — the query's cancel can never reach it.
var ctxNeedScope = []string{
	"repro/internal/exec",
	"repro/internal/federation",
	"repro/internal/netsim",
}

// CtxPropagate enforces the E15 invariant that one context flows from the
// edge to the leaves of every query. Two rules:
//
//  1. context.Background() / context.TODO() may appear only in approved
//     roots (cmd/ and examples/ binaries, test files). Everywhere else a
//     fresh root context detaches work from the query that requested it.
//  2. In the executor/federation/netsim fetch path, an exported function
//     with no context.Context parameter must not call one that has it:
//     the wrapper severs cancellation for every caller above it.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "query contexts reach the leaves: no stray context roots, no exported ctx-dropping wrappers in the fetch path",
	Run:  runCtxPropagate,
}

func runCtxPropagate(p *Pass) {
	if ctxApprovedRoot(p.Path) {
		return
	}
	needCtx := pkgIs(p.Path, ctxNeedScope...)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if name := ctxRootCall(p.Info, x); name != "" {
					p.Reportf(x.Pos(),
						"context.%s() outside an approved root (cmd/, examples/, tests) detaches this work from the query's context; thread the caller's ctx or justify the root",
						name)
				}
			case *ast.FuncDecl:
				if needCtx {
					p.checkCtxDroppingFunc(x)
				}
			}
			return true
		})
	}
}

// ctxApprovedRoot reports whether a package may mint root contexts freely:
// binaries own their lifetime, so cmd/ and examples/ are exempt.
func ctxApprovedRoot(path string) bool {
	return strings.HasPrefix(path, "repro/cmd/") ||
		strings.HasPrefix(path, "repro/examples/")
}

// ctxRootCall returns "Background" or "TODO" when the call mints a fresh
// root context, resolving the package through type info so renamed
// imports are still caught.
func ctxRootCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if importedPkgName(info, sel.X) != "context" {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}

// checkCtxDroppingFunc applies rule 2 to one function declaration: an
// exported function (or method on an exported type) that takes no
// context.Context itself but calls a function that does. The diagnostic
// lands on the offending call, so a justifying //lint:ignore sits where
// the context is actually dropped.
func (p *Pass) checkCtxDroppingFunc(fn *ast.FuncDecl) {
	if fn.Body == nil || !fn.Name.IsExported() || !exportedRecv(fn) {
		return
	}
	obj := p.Info.Defs[fn.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || signatureTakesCtx(sig) {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		// Function literals capture whatever context their maker had;
		// only the declared function's own calls are its API surface.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		calleeSig, ok := p.TypeOf(call.Fun).(*types.Signature)
		if !ok || !signatureTakesCtx(calleeSig) {
			return true
		}
		p.Reportf(call.Pos(),
			"exported %s takes no context.Context but calls %s, which does; the wrapper severs cancellation — add a ctx parameter or justify it",
			fn.Name.Name, calleeName(call))
		return true
	})
}

// exportedRecv reports whether fn is a plain function or a method whose
// receiver type is exported; methods on unexported types are internal
// plumbing that rule 2 does not police.
func exportedRecv(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// signatureTakesCtx reports whether any parameter is a context.Context.
func signatureTakesCtx(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	name, ok := namedFrom(t, "context")
	return ok && name == "Context"
}

// calleeName renders the called expression for the diagnostic.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	default:
		return "a context-taking function"
	}
}

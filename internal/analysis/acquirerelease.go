package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// admissionPkg declares the admission slot type acquirerelease tracks.
const admissionPkg = "repro/internal/core"

// AcquireRelease enforces the E16 admission invariant: a query's slot
// must be returned on every exit path. Any call in non-test code whose
// results include a *core.AdmissionSlot must bind the slot to a variable
// and defer its Release in the same function — Release is nil-safe and
// idempotent, so `defer slot.Release()` directly after the acquire covers
// failed acquires and every return path at once. Discarding the slot
// (blank identifier, unused call result) leaks the tenant's quota until
// process exit. Passing the slot up to the caller via a direct return is
// the one allowed ownership transfer.
var AcquireRelease = &Analyzer{
	Name: "acquirerelease",
	Doc:  "every admission Acquire binds its slot and defers Release on the same path",
	Run:  runAcquireRelease,
}

func runAcquireRelease(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			p.checkSlotFlow(fn)
		}
	}
}

// checkSlotFlow audits one function: every slot-producing call must be
// either bound to a variable that is deferred-released, or returned
// directly to the caller.
func (p *Pass) checkSlotFlow(fn *ast.FuncDecl) {
	released := make(map[types.Object]bool)   // objects with defer x.Release()
	bound := make(map[types.Object]token.Pos) // slot vars bound from acquires
	handled := make(map[*ast.CallExpr]bool)   // acquire calls in a known shape

	// First pass: recognized slot-call positions and deferred releases.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if obj := p.slotReleaseReceiver(x.Call); obj != nil {
				released[obj] = true
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 {
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
					p.bindSlotCall(call, x.Lhs, bound, handled)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 1 {
				if call, ok := x.Values[0].(*ast.CallExpr); ok {
					lhs := make([]ast.Expr, len(x.Names))
					for i, id := range x.Names {
						lhs[i] = id
					}
					p.bindSlotCall(call, lhs, bound, handled)
				}
			}
		case *ast.ReturnStmt:
			// Returning the acquire result transfers ownership upward;
			// the caller is on the hook for Release.
			for _, r := range x.Results {
				if call, ok := r.(*ast.CallExpr); ok && p.slotResultIndex(call) >= 0 {
					handled[call] = true
				}
			}
		}
		return true
	})

	// Second pass: slot-producing calls outside any recognized shape leak
	// by construction.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || handled[call] || p.slotResultIndex(call) < 0 {
			return true
		}
		p.Reportf(call.Pos(),
			"admission slot from %s is discarded; bind it and defer its Release (quota leaks otherwise)",
			calleeName(call))
		return true
	})

	for obj, pos := range bound {
		if !released[obj] {
			p.Reportf(pos,
				"admission slot %s has no deferred Release in %s; Release is nil-safe — defer it immediately after the acquire",
				obj.Name(), fn.Name.Name)
		}
	}
}

// bindSlotCall records how an assignment disposes of a slot-producing
// call: blank identifier is a leak, a named variable is tracked for the
// deferred-Release check.
func (p *Pass) bindSlotCall(call *ast.CallExpr, lhs []ast.Expr, bound map[types.Object]token.Pos, handled map[*ast.CallExpr]bool) {
	idx := p.slotResultIndex(call)
	if idx < 0 {
		return
	}
	handled[call] = true
	if idx >= len(lhs) {
		return
	}
	id, ok := lhs[idx].(*ast.Ident)
	if !ok {
		// Assigned into a field or element: the slot escapes local flow;
		// release responsibility cannot be checked here, so flag it.
		p.Reportf(call.Pos(),
			"admission slot from %s is stored outside a local variable; acquirerelease cannot see its Release — restructure or justify with //lint:ignore",
			calleeName(call))
		return
	}
	if id.Name == "_" {
		p.Reportf(call.Pos(),
			"admission slot from %s is dropped into the blank identifier; the tenant's quota leaks",
			calleeName(call))
		return
	}
	if obj := p.Info.ObjectOf(id); obj != nil {
		if _, dup := bound[obj]; !dup {
			bound[obj] = call.Pos()
		}
	}
}

// slotResultIndex returns the position of *core.AdmissionSlot in the
// call's result tuple, or -1 when the call does not produce one.
func (p *Pass) slotResultIndex(call *ast.CallExpr) int {
	t := p.TypeOf(call)
	if t == nil {
		return -1
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isAdmissionSlot(tup.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if isAdmissionSlot(t) {
		return 0
	}
	return -1
}

// slotReleaseReceiver returns the object of x in `defer x.Release()` when
// x is a plain identifier of slot type.
func (p *Pass) slotReleaseReceiver(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !isAdmissionSlot(p.TypeOf(sel.X)) {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// isAdmissionSlot reports whether t (after stripping one pointer) is
// core.AdmissionSlot.
func isAdmissionSlot(t types.Type) bool {
	name, ok := namedFrom(t, admissionPkg)
	return ok && name == "AdmissionSlot"
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// execPkgPath declares the package that owns the Batch type.
const execPkgPath = "repro/internal/exec"

// BatchRetain flags storing an exec.Batch into a struct field or a
// package-level variable without a deep copy. The E14 batch validity
// contract says a batch returned by NextBatch is only valid until the
// next NextBatch/Close on the same iterator — operators reuse the
// container. Retaining one beyond that window reads whatever the producer
// wrote next. Copy the rows (append(exec.Batch(nil), b...)). An operator
// refilling its own buffer is not a retention (see ownContainer).
var BatchRetain = &Analyzer{
	Name: "batchretain",
	Doc:  "no exec.Batch stored into fields or globals without a deep copy",
	Run:  runBatchRetain,
}

func runBatchRetain(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN {
				return true
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					p.checkBatchStore(f, as, as.Lhs[i], rhs)
				}
			} else if len(as.Rhs) == 1 {
				// Tuple assignment from one call: s.cur, err = it.NextBatch()
				// stores the producer's container directly.
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
					if tup, ok := p.TypeOf(call).(*types.Tuple); ok {
						for i := 0; i < tup.Len() && i < len(as.Lhs); i++ {
							if !isBatchType(tup.At(i).Type()) {
								continue
							}
							if kind, name := p.retentionTarget(as.Lhs[i]); kind != "" {
								p.reportBatchStore(as.Pos(), kind, name)
							}
						}
					}
				}
			}
			return true
		})
	}
}

// checkBatchStore flags lhs = rhs when rhs aliases a Batch container and
// lhs outlives the batch's validity window.
func (p *Pass) checkBatchStore(file *ast.File, as *ast.AssignStmt, lhs, rhs ast.Expr) {
	if !isBatchType(p.TypeOf(rhs)) {
		return
	}
	if freshBatchExpr(p, rhs) || p.ownContainer(file, lhs, rhs) {
		return
	}
	if kind, name := p.retentionTarget(lhs); kind != "" {
		p.reportBatchStore(as.Pos(), kind, name)
	}
}

func (p *Pass) reportBatchStore(pos token.Pos, kind, name string) {
	p.Reportf(pos,
		"storing a Batch into %s %q retains a container the producer reuses after the next NextBatch; deep-copy the rows (append(exec.Batch(nil), b...))",
		kind, name)
}

// isBatchType reports whether t is exec.Batch (possibly behind a pointer).
func isBatchType(t types.Type) bool {
	name, ok := namedFrom(t, execPkgPath)
	return ok && name == "Batch"
}

// freshBatchExpr reports whether e builds a new container rather than
// aliasing an existing one: append/make/copying calls are fresh, plain
// conversions (Batch(x)) are not — a conversion shares the backing array.
func freshBatchExpr(p *Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() {
			// Conversion: same backing array, check what was converted.
			if len(x.Args) == 1 {
				return freshBatchExpr(p, x.Args[0])
			}
			return false
		}
		return true // append, make, or a call that hands over ownership
	case *ast.CompositeLit:
		return true
	case *ast.Ident:
		return x.Name == "nil"
	}
	return false
}

// ownContainer reports whether storing rhs into lhs is an operator putting
// its own refilled buffer back: rhs is a local that is only ever assigned
// lhs[:0], a call that received lhs[:0] as an argument, or an append to the
// local itself. The container then came out of lhs, not from a producer.
func (p *Pass) ownContainer(file *ast.File, lhs, rhs ast.Expr) bool {
	id, ok := rhs.(*ast.Ident)
	if !ok {
		return false
	}
	local, ok := p.objectOf(id).(*types.Var)
	if !ok || isPackageLevel(local) {
		return false
	}
	field := types.ExprString(lhs)
	assigned, own := false, true
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			if lid, ok := l.(*ast.Ident); !ok || p.objectOf(lid) != local {
				continue
			}
			src := as.Rhs[0] // one call filling a tuple, unless paired below
			if len(as.Lhs) == len(as.Rhs) {
				src = as.Rhs[i]
			}
			assigned = true
			own = own && p.refills(src, field, local)
		}
		return true
	})
	return assigned && own
}

// refills reports whether src yields the buffer of field: field[:0], a call
// handed field[:0], or append(local, ...).
func (p *Pass) refills(src ast.Expr, field string, local *types.Var) bool {
	emptyReslice := func(e ast.Expr) bool {
		s, ok := e.(*ast.SliceExpr)
		if !ok || s.Low != nil || s.Slice3 {
			return false
		}
		hi, ok := s.High.(*ast.BasicLit)
		return ok && hi.Value == "0" && types.ExprString(s.X) == field
	}
	if emptyReslice(src) {
		return true
	}
	call, ok := src.(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 {
		if _, builtin := p.objectOf(fn).(*types.Builtin); builtin && fn.Name == "append" {
			first, ok := call.Args[0].(*ast.Ident)
			return ok && p.objectOf(first) == local
		}
	}
	for _, a := range call.Args {
		if emptyReslice(a) {
			return true
		}
	}
	return false
}

// retentionTarget classifies an assignment target that outlives the
// current batch: a struct field or a package-level variable (directly or
// through an index expression). It returns ("", "") for ordinary locals.
func (p *Pass) retentionTarget(e ast.Expr) (kind, name string) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return "struct field", x.Sel.Name
		}
		// Qualified package-level var: pkg.Var.
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
			return "package variable", x.Sel.Name
		}
	case *ast.Ident:
		if v, ok := p.objectOf(x).(*types.Var); ok && isPackageLevel(v) {
			return "package variable", x.Name
		}
	case *ast.IndexExpr:
		return p.retentionTarget(x.X)
	case *ast.StarExpr:
		return p.retentionTarget(x.X)
	}
	return "", ""
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

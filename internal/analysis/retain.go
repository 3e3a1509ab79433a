package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Packages whose allocators hand out query-lifetime memory. The analyzer
// does not run inside them: sqlparse building its own arena-backed AST and
// arena's slab internals are the mechanism, not a violation of it. Both
// sit below exec in the import graph, so no exec.Batch reaches them either.
const (
	sqlparsePkgPath = "repro/internal/sqlparse"
	arenaPkgPath    = "repro/internal/arena"
)

// execPkgPath declares the package that owns Batch and Scratch.
const execPkgPath = "repro/internal/exec"

// Retain flags a short-lived container stored where it outlives its owner:
// a struct field, a package-level variable, or a channel. Two rules mark a
// stored value:
//
//   - Arena/scratch provenance. Everything allocated through a query's
//     sqlparse.Arena, plan bind slabs, or exec.Scratch dies at the engine's
//     PutArena/scratch release on query exit; a store that outlives the
//     query dangles into recycled slab blocks. A value is arena-backed when
//     it comes from a producer call or from a local that holds one, and it
//     remembers its allocator (the producer's arena or scratch operand). A
//     store into a field of an object from the same allocator is not a
//     retention — an operator built by exec.New holding its scratch-built
//     input dies with it. Copy to the heap at the boundary (the engine
//     block-clones result rows).
//   - Batch aliasing. The E14 batch validity contract says a batch returned
//     by NextBatch is only valid until the next NextBatch/Close on the same
//     iterator — operators reuse the container. Retaining one beyond that
//     window reads whatever the producer wrote next. Copy the rows
//     (append(exec.Batch(nil), b...)). A freshly built container, or an
//     operator refilling its own buffer (see ownContainer), is not a
//     retention.
//
// An owned per-query container is annotated with //lint:ignore retain <why>.
var Retain = &Analyzer{
	Name: "retain",
	Doc:  "no arena/scratch-backed value or borrowed exec.Batch stored into fields, globals, or channels",
	Run:  runRetain,
}

func runRetain(p *Pass) {
	if pkgIs(p.Path, sqlparsePkgPath, arenaPkgPath) {
		return
	}
	for _, f := range p.Files {
		// Objects are unique per declaration, so one taint map serves
		// every function in the file; it is filled in source order and
		// maps each arena-backed local to its allocator.
		tainted := make(map[types.Object]string)
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, dst := range st.Lhs {
					// One call filling a tuple feeds every target, unless
					// the values are paired. A Batch stored straight from
					// the tuple (s.cur, err = it.NextBatch()) is the
					// producer's own container, never a fresh one.
					val, typ, fromTuple := st.Rhs[0], types.Type(nil), false
					if len(st.Lhs) == len(st.Rhs) {
						val, typ = st.Rhs[i], p.TypeOf(st.Rhs[i])
					} else if call, ok := val.(*ast.CallExpr); ok {
						if tup, ok := p.TypeOf(call).(*types.Tuple); ok && i < tup.Len() {
							typ, fromTuple = tup.At(i).Type(), true
						}
					}
					arena := p.origin(tainted, val)
					// A local carries taint forward (a clean reassignment
					// clears it); it dies with the frame, so never retains.
					if id, ok := dst.(*ast.Ident); ok {
						if v, ok := p.objectOf(id).(*types.Var); ok && !isPackageLevel(v) {
							tainted[v] = arena
							continue
						}
					}
					if sink := p.sink(dst); sink != "" {
						// A field of an object from the same allocator
						// shares the value's lifetime.
						sameOwner := arena != "" && p.ownerOrigin(tainted, dst) == arena
						borrowed := isBatchType(typ) && (fromTuple || p.aliasesBatch(f, dst, val))
						p.reportRetained(st, sink, arena != "" && !sameOwner, borrowed)
					}
				}
			case *ast.SendStmt:
				borrowed := isBatchType(p.TypeOf(st.Value)) && p.aliasesBatch(f, st.Chan, st.Value)
				p.reportRetained(st, "a channel", p.origin(tainted, st.Value) != "", borrowed)
			}
			return true
		})
	}
}

// reportRetained reports a store into sink when either rule marks it.
func (p *Pass) reportRetained(at ast.Node, sink string, arena, borrowed bool) {
	switch {
	case arena:
		p.Reportf(at.Pos(), "storing an arena-backed value into %s outlives its owner: it dies at the arena's Reset on query exit; copy it to the heap or annotate an owned per-query container", sink)
	case borrowed:
		p.Reportf(at.Pos(), "storing a borrowed Batch into %s outlives its owner: the producer reuses the container after the next NextBatch; deep-copy the rows (append(exec.Batch(nil), b...))", sink)
	}
}

// sink classifies an assignment target that outlives the current
// function: a struct field or a package-level variable (directly or
// through an index expression). It returns "" for ordinary locals.
func (p *Pass) sink(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return fmt.Sprintf("struct field %q", x.Sel.Name)
		}
		// Qualified package-level var: pkg.Var.
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
			return fmt.Sprintf("package variable %q", x.Sel.Name)
		}
	case *ast.Ident:
		if v, ok := p.objectOf(x).(*types.Var); ok && isPackageLevel(v) {
			return fmt.Sprintf("package variable %q", x.Name)
		}
	case *ast.IndexExpr:
		return p.sink(x.X)
	case *ast.StarExpr:
		return p.sink(x.X)
	}
	return ""
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// --- Arena/scratch provenance ---

// origin returns the allocator whose memory e holds — the source text of a
// producer call's arena or scratch operand, or the allocator a tainted
// local carries — and "" when e is not arena-backed.
func (p *Pass) origin(tainted map[types.Object]string, e ast.Expr) string {
	if o := p.producer(e); o != "" {
		return o
	}
	return p.taintOf(tainted, e)
}

// taintOf returns the allocator of the tracked arena-backed local e reads,
// directly or through a slice/index/field/conversion of one.
func (p *Pass) taintOf(tainted map[types.Object]string, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := p.objectOf(x); obj != nil {
			return tainted[obj]
		}
	case *ast.IndexExpr:
		return p.taintOf(tainted, x.X)
	case *ast.SliceExpr:
		return p.taintOf(tainted, x.X)
	case *ast.SelectorExpr:
		return p.taintOf(tainted, x.X)
	case *ast.CallExpr:
		// A conversion keeps the backing memory: datum.Row(scratchSlice).
		if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return p.taintOf(tainted, x.Args[0])
		}
	case *ast.ParenExpr:
		return p.taintOf(tainted, x.X)
	case *ast.StarExpr:
		return p.taintOf(tainted, x.X)
	}
	return ""
}

// ownerOrigin returns the allocator of the object whose field dst writes,
// "" when that object is not arena-backed (a heap object, a parameter)
// or dst is no field.
func (p *Pass) ownerOrigin(tainted map[types.Object]string, dst ast.Expr) string {
	switch x := dst.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return p.origin(tainted, x.X)
		}
	case *ast.IndexExpr:
		return p.ownerOrigin(tainted, x.X)
	case *ast.StarExpr:
		return p.ownerOrigin(tainted, x.X)
	}
	return ""
}

// producer reports the allocator operand of e when e is a call that
// returns arena- or scratch-backed memory: sqlparse.ParseArena,
// plan.BindParamsIn (arena mode shares the statement's lifetime either
// way), exec.DrainBatchesScratch, exec.CloneRows, exec's generic New and
// Make (called qualified, or bare inside exec), New/Make/Copy on
// arena.Slab, and any allocating method on sqlparse.Arena. It returns ""
// for any other expression, and for a producer handed a literal nil
// allocator, which allocates on the heap.
func (p *Pass) producer(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	operand := func(i int) string {
		if i >= len(call.Args) {
			return "?"
		}
		if tv, ok := p.Info.Types[call.Args[i]]; ok && tv.IsNil() {
			return "" // a literal nil allocator is the heap
		}
		return types.ExprString(call.Args[i])
	}
	fun := call.Fun
	switch f := fun.(type) { // an explicit instantiation: exec.Make[datum.Row](s, n)
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var name *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		name = f
	case *ast.SelectorExpr:
		name = f.Sel
	default:
		return ""
	}
	fn, ok := p.objectOf(name).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Pkg().Path() + "." + fn.Name() {
		case sqlparsePkgPath + ".ParseArena", "repro/internal/plan.BindParamsIn",
			execPkgPath + ".New", execPkgPath + ".Make", execPkgPath + ".CloneRows":
			return operand(0)
		case execPkgPath + ".DrainBatchesScratch":
			return operand(1)
		}
		return ""
	}
	// Method producers, by receiver type; the receiver is the allocator.
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := p.TypeOf(sel.X)
	if rn, ok := namedFrom(recv, arenaPkgPath); ok && rn == "Slab" &&
		(fn.Name() == "New" || fn.Name() == "Make" || fn.Name() == "Copy") {
		return types.ExprString(sel.X)
	}
	if rn, ok := namedFrom(recv, sqlparsePkgPath); ok && rn == "Arena" {
		// RenderSQL returns a fresh string; everything else allocating
		// on the arena shares its lifetime.
		switch fn.Name() {
		case "Reset", "Bytes", "RenderSQL", "Ext", "SetExt":
			return ""
		}
		return types.ExprString(sel.X)
	}
	return ""
}

// --- Batch aliasing ---

// isBatchType reports whether t is exec.Batch (possibly behind a pointer).
func isBatchType(t types.Type) bool {
	name, ok := namedFrom(t, execPkgPath)
	return ok && name == "Batch"
}

// aliasesBatch reports whether storing the Batch val into dst keeps a
// container dst does not own: neither freshly built nor dst's own buffer.
func (p *Pass) aliasesBatch(file *ast.File, dst, val ast.Expr) bool {
	return !freshBatchExpr(p, val) && !p.ownContainer(file, dst, val)
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

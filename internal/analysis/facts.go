package analysis

// The facts layer is eiilint's interprocedural backbone. Per-file pattern
// matching cannot see the failure modes that cross function boundaries —
// a mutex held here while a function called there blocks on a channel, a
// goroutine whose exit condition lives two calls away. So every
// package gets a bottom-up summary ("facts") of each function it
// declares: which mutex classes it acquires, which potentially-blocking
// operations it performs, which functions it calls (and which locks are
// held at each call site), whether it contains a goroutine exit signal,
// and which `go` statements it launches. A package's summaries depend only
// on that package's syntax plus the export data `go list -export -deps`
// already produced; they are then linked into a static call graph: direct
// calls resolve by object, interface method calls by method-set matching
// against every analyzed type. Transitive properties (blocks, acquires,
// may hang, has exit signal) are propagated over the graph to a fixpoint,
// which is what the lockorder and goroleak analyzers consume.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncID names one function, method, or function literal across the whole
// analysis universe: "pkg/path.Func", "pkg/path.Type.Method" (pointer
// receivers stripped), or "pkg/path.Type.Method$3" for the third literal
// inside a function.
type FuncID string

// short renders the ID without the import-path prefix for diagnostics.
func (id FuncID) short() string {
	s := string(id)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.Index(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}

// LockUse is one acquisition (or held instance) of a mutex class. A class
// abstracts instances: every sync.Mutex stored in field mu of type T
// shares the class "pkg.T.mu", which is the granularity lock-order
// reasoning needs (two instances of the same class can deadlock against
// each other just as two classes can against one another).
type LockUse struct {
	Class string
	Pos   token.Pos
}

// LockEdge records that From was held while To was acquired.
type LockEdge struct {
	From, To string
	Pos      token.Pos
}

// BlockOp is one potentially-blocking operation: a channel send or
// receive, a select without a default, a sync.WaitGroup/Cond Wait, or a
// call into the transfer/execute layer (Transfer, ExecuteCtx, ...).
type BlockOp struct {
	What string
	Pos  token.Pos
	Held []LockUse // locks held when the operation runs
}

// CallSite is one static call with the lock context it runs under.
type CallSite struct {
	Pos    token.Pos
	Callee FuncID // direct resolution; "" for interface or unresolved calls
	// IfaceSig is the sorted method-name signature of the interface a
	// method call dispatches through ("Close|NextBatch"); the linker
	// resolves it against every analyzed type's method set.
	IfaceSig string
	Method   string
	Held     []LockUse
}

// GoSpawn is one `go` statement and its statically-resolved target.
type GoSpawn struct {
	Pos    token.Pos
	Target FuncID // "" when the spawned expression cannot be resolved
}

// FuncFacts is the bottom-up summary of one function body.
type FuncFacts struct {
	ID   FuncID
	Pkg  *Package
	Pos  token.Pos
	Name string // display name ("(*Warehouse).Refresh")

	Acquires []LockUse
	Edges    []LockEdge
	Blocks   []BlockOp
	Calls    []CallSite
	Spawns   []GoSpawn

	// ExitSignal: the body contains an exit path tied to a channel — a
	// receive (a closed channel unblocks it), a select with a receive
	// case (ctx.Done and done-channel patterns), or a range over a
	// channel. This is what a leak-free goroutine hangs its life on.
	ExitSignal bool
	// WGDone: the body performs sync.WaitGroup.Done — the goroutine is
	// joined by whoever Waits, the other sanctioned discipline.
	WGDone bool
	// Hazard is a local reason the function can hang forever: a channel
	// send outside any select, or an infinite for-loop with no reachable
	// exit. Empty when none.
	Hazard    string
	HazardPos token.Pos
}

// Facts is the linked, propagated summary of every analyzed package.
type Facts struct {
	Funcs    map[FuncID]*FuncFacts
	PkgFuncs map[string][]*FuncFacts // package path → declared order

	// typeMethods: "pkg.Type" → method name → FuncID, the registry
	// interface method-set resolution matches against.
	typeMethods map[string]map[string]FuncID

	// resolvedCalls caches each call site's effective callee list.
	resolvedCalls map[*CallSite][]FuncID

	// blocking and hazard map a function to the human-readable origin
	// chain of the propagated property.
	blocking map[FuncID]string
	hazard   map[FuncID]string
	exits    map[FuncID]bool
	acquires map[FuncID]map[string]bool
}

// TransBlocking reports why id (or anything it transitively calls) can
// block, or "" when it provably performs no watched blocking operation.
func (f *Facts) TransBlocking(id FuncID) string { return f.blocking[id] }

// TransHazard reports why id can hang forever (goroleak's hazard:
// unguarded channel send or infinite loop), or "".
func (f *Facts) TransHazard(id FuncID) string { return f.hazard[id] }

// TransExit reports whether id (or a function it calls) contains a
// channel-tied exit signal.
func (f *Facts) TransExit(id FuncID) bool { return f.exits[id] }

// TransAcquires returns every mutex class id acquires, directly or
// through its callees.
func (f *Facts) TransAcquires(id FuncID) map[string]bool { return f.acquires[id] }

// Callees returns the resolved target list of a call site: the direct
// callee, or every analyzed type whose method set satisfies the
// interface signature.
func (f *Facts) Callees(cs *CallSite) []FuncID { return f.resolvedCalls[cs] }

// roundTripCalls are the named operations that cross a link in this
// codebase: link transfers, source executions, remote fetches, and the E18
// inter-node shipping API. Each blocks on I/O or virtual time, so the
// facts layer records it as a blocking operation (lockorder's input); and
// since E12 each can fail under fault injection, so errdrop forbids
// discarding its error. Matching is by selector name because the calls
// dispatch through interfaces (Source, FetchRouter) a purely direct call
// graph cannot pierce.
var roundTripCalls = map[string]bool{
	"Transfer":     true,
	"ExecuteCtx":   true,
	"FetchRemote":  true,
	"RunFragment":  true,
	"SendFragment": true,
	"GatherRows":   true,
}

// ComputeFacts summarizes every package, links the call graph, and
// propagates transitive properties.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Funcs:         make(map[FuncID]*FuncFacts),
		PkgFuncs:      make(map[string][]*FuncFacts),
		typeMethods:   make(map[string]map[string]FuncID),
		resolvedCalls: make(map[*CallSite][]FuncID),
	}
	for _, pkg := range pkgs {
		b := &factBuilder{pkg: pkg}
		b.build()
		f.PkgFuncs[pkg.Path] = append(f.PkgFuncs[pkg.Path], b.out...)
		for _, ff := range b.out {
			f.Funcs[ff.ID] = ff
			registerMethod(f.typeMethods, ff)
		}
	}
	f.link()
	f.propagate()
	return f
}

// registerMethod indexes "pkg.Type" → method → FuncID for method facts.
func registerMethod(idx map[string]map[string]FuncID, ff *FuncFacts) {
	s := string(ff.ID)
	if strings.Contains(s, "$") {
		return // literals are not methods
	}
	last := strings.LastIndex(s, ".")
	if last < 0 {
		return
	}
	owner, method := s[:last], s[last+1:]
	if i := strings.LastIndex(owner, "/"); i >= 0 && !strings.Contains(owner[i:], ".") {
		return // "pkg/path.Func": owner is the bare package, not a type
	}
	m := idx[owner]
	if m == nil {
		m = make(map[string]FuncID)
		idx[owner] = m
	}
	m[method] = ff.ID
}

// link resolves every call site to its effective callee list: direct
// calls by identity, interface calls by matching the interface's method
// signature against every analyzed type's declared method set.
func (f *Facts) link() {
	// ducks caches interface-signature → candidate FuncIDs per method.
	type duckKey struct{ sig, method string }
	ducks := make(map[duckKey][]FuncID)
	ownersSorted := make([]string, 0, len(f.typeMethods))
	for owner := range f.typeMethods {
		ownersSorted = append(ownersSorted, owner)
	}
	sort.Strings(ownersSorted)

	resolveDuck := func(sig, method string) []FuncID {
		key := duckKey{sig, method}
		if out, ok := ducks[key]; ok {
			return out
		}
		names := strings.Split(sig, "|")
		var out []FuncID
		for _, owner := range ownersSorted {
			methods := f.typeMethods[owner]
			ok := true
			for _, n := range names {
				if _, has := methods[n]; !has {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if id, has := methods[method]; has {
				out = append(out, id)
			}
		}
		ducks[key] = out
		return out
	}

	for _, ff := range f.Funcs {
		for i := range ff.Calls {
			cs := &ff.Calls[i]
			switch {
			case cs.Callee != "":
				if _, known := f.Funcs[cs.Callee]; known {
					f.resolvedCalls[cs] = []FuncID{cs.Callee}
				}
			case cs.IfaceSig != "":
				f.resolvedCalls[cs] = resolveDuck(cs.IfaceSig, cs.Method)
			}
		}
	}
}

// propagate runs the transitive fixpoints: blocking, hazard, exit
// signals, and acquired lock classes all flow from callee to caller.
func (f *Facts) propagate() {
	// Reverse edges: callee → callers.
	callers := make(map[FuncID][]FuncID)
	for id, ff := range f.Funcs {
		for i := range ff.Calls {
			for _, target := range f.resolvedCalls[&ff.Calls[i]] {
				callers[target] = append(callers[target], id)
			}
		}
	}

	seedInfo := func(seed func(*FuncFacts) string) map[FuncID]string {
		out := make(map[FuncID]string)
		var work []FuncID
		for id, ff := range f.Funcs {
			if what := seed(ff); what != "" {
				out[id] = what
				work = append(work, id)
			}
		}
		sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
		for len(work) > 0 {
			id := work[0]
			work = work[1:]
			for _, caller := range callers[id] {
				if _, done := out[caller]; done {
					continue
				}
				what := out[id]
				if !strings.HasPrefix(what, "calls ") {
					what = fmt.Sprintf("calls %s, which performs a %s", id.short(), what)
				} else {
					what = fmt.Sprintf("calls %s, which transitively blocks", id.short())
				}
				out[caller] = what
				work = append(work, caller)
			}
		}
		return out
	}

	f.blocking = seedInfo(func(ff *FuncFacts) string {
		if len(ff.Blocks) > 0 {
			return ff.Blocks[0].What
		}
		return ""
	})
	f.hazard = seedInfo(func(ff *FuncFacts) string {
		return ff.Hazard
	})

	// Exit signals: boolean fixpoint.
	f.exits = make(map[FuncID]bool)
	var work []FuncID
	for id, ff := range f.Funcs {
		if ff.ExitSignal {
			f.exits[id] = true
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		for _, caller := range callers[id] {
			if !f.exits[caller] {
				f.exits[caller] = true
				work = append(work, caller)
			}
		}
	}

	// Acquired classes: set-union fixpoint.
	f.acquires = make(map[FuncID]map[string]bool)
	for id, ff := range f.Funcs {
		if len(ff.Acquires) > 0 {
			set := make(map[string]bool, len(ff.Acquires))
			for _, a := range ff.Acquires {
				set[a.Class] = true
			}
			f.acquires[id] = set
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		for _, caller := range callers[id] {
			dst := f.acquires[caller]
			if dst == nil {
				dst = make(map[string]bool)
				f.acquires[caller] = dst
			}
			grew := false
			for class := range f.acquires[id] {
				if !dst[class] {
					dst[class] = true
					grew = true
				}
			}
			if grew {
				work = append(work, caller)
			}
		}
	}
}

// --- Per-package fact construction ---

// factBuilder walks one package's syntax and produces its FuncFacts.
type factBuilder struct {
	pkg *Package
	out []*FuncFacts
}

func (b *factBuilder) build() {
	for _, file := range b.pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			id, name := b.declID(fn)
			b.walkFunc(id, name, fn.Pos(), fn.Body)
		}
	}
}

// declID derives the FuncID and display name of a declaration.
func (b *factBuilder) declID(fn *ast.FuncDecl) (FuncID, string) {
	name := fn.Name.Name
	owner := b.pkg.Path
	display := name
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		if tn := namedName(b.pkg.Info.TypeOf(fn.Recv.List[0].Type)); tn != "" {
			owner = b.pkg.Path + "." + tn
			display = "(" + tn + ")." + name
		}
	}
	return FuncID(owner + "." + name), display
}

// walkFunc summarizes one body (declaration or literal), recursing into
// nested literals as separate pseudo-functions.
func (b *factBuilder) walkFunc(id FuncID, name string, pos token.Pos, body *ast.BlockStmt) *FuncFacts {
	ff := &FuncFacts{ID: id, Pkg: b.pkg, Pos: pos, Name: name}
	b.out = append(b.out, ff)
	w := &lockWalker{b: b, f: ff}
	w.walkStmts(body.List)
	return ff
}

// namedName returns the bare name of a (possibly pointered) named type.
func namedName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// typeFullName renders a (possibly pointered) type as "pkg/path.Name",
// with a "*" prefix for pointers; "" when it is not a named type.
func typeFullName(t types.Type) string {
	prefix := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		prefix = "*"
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return prefix + obj.Name()
	}
	return prefix + obj.Pkg().Path() + "." + obj.Name()
}

// heldEntry is one currently-held lock in the walker's linear model.
type heldEntry struct {
	class    string
	key      string // rendered instance expression, for unlock matching
	pos      token.Pos
	deferred bool // released by a deferred Unlock: held to function end
}

// lockWalker models lock state through one function body. It is a linear
// approximation: statements are visited in order, branches run on a copy
// of the held set (a lock both acquired and released inside a branch
// never escapes it), and a deferred Unlock pins its lock as held to the
// end. That is exact for the lock/defer-unlock and
// lock/branch-unlock-return shapes this codebase uses.
type lockWalker struct {
	b    *factBuilder
	f    *FuncFacts
	held []heldEntry
}

func (w *lockWalker) heldSnapshot() []LockUse {
	if len(w.held) == 0 {
		return nil
	}
	out := make([]LockUse, len(w.held))
	for i, h := range w.held {
		out[i] = LockUse{Class: h.class, Pos: h.pos}
	}
	return out
}

func (w *lockWalker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

// branch walks nested statements on a copy of the held set.
func (w *lockWalker) branch(list []ast.Stmt) {
	saved := append([]heldEntry(nil), w.held...)
	w.walkStmts(list)
	w.held = saved
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok && w.lockTransition(call, false) {
			return
		}
		w.scanExpr(x.X)
	case *ast.DeferStmt:
		if w.lockTransition(x.Call, true) {
			return
		}
		if isWaitGroupDone(w.b.pkg.Info, x.Call) {
			w.f.WGDone = true
			return
		}
		w.scanExpr(x.Call)
	case *ast.GoStmt:
		w.spawn(x)
	case *ast.SendStmt:
		w.scanExpr(x.Chan)
		w.scanExpr(x.Value)
		w.block("channel send", x.Pos())
		w.hazard("channel send outside select (blocks forever if no receiver comes)", x.Pos())
	case *ast.SelectStmt:
		w.walkSelect(x)
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.scanExpr(x.Cond)
		w.branch(x.Body.List)
		if x.Else != nil {
			w.branch([]ast.Stmt{x.Else})
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		if x.Cond != nil {
			w.scanExpr(x.Cond)
		}
		if x.Cond == nil && !loopCanExit(x.Body) {
			w.hazard("infinite for-loop with no reachable exit", x.Pos())
		}
		w.branch(x.Body.List)
	case *ast.RangeStmt:
		w.scanExpr(x.X)
		if isChannelType(w.b.pkg.Info.TypeOf(x.X)) {
			w.f.ExitSignal = true
			w.block("range over channel", x.Pos())
		}
		w.branch(x.Body.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		if x.Tag != nil {
			w.scanExpr(x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e)
				}
				w.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkStmt(x.Assign)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.BlockStmt:
		w.branch(x.List)
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.scanExpr(e)
		}
		for _, e := range x.Lhs {
			w.scanExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.scanExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.scanExpr(x.X)
	}
}

// walkSelect handles a select statement: receives are exit signals,
// comm-clause sends are guarded (no hazard), and the select itself blocks
// unless it has a default.
func (w *lockWalker) walkSelect(s *ast.SelectStmt) {
	hasDefault, hasRecv := false, false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		switch comm := cc.Comm.(type) {
		case nil:
			hasDefault = true
		case *ast.SendStmt:
			w.scanExpr(comm.Chan)
			w.scanExpr(comm.Value)
		case *ast.ExprStmt:
			hasRecv = true
		case *ast.AssignStmt:
			hasRecv = true
		}
		w.branch(cc.Body)
	}
	if hasRecv {
		w.f.ExitSignal = true
	}
	if !hasDefault {
		w.block("select with no default", s.Pos())
	}
}

// spawn records a go statement, giving a spawned literal its own facts.
func (w *lockWalker) spawn(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		w.scanExpr(arg)
	}
	var target FuncID
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		lit := w.b.walkFunc(w.litID(), w.f.Name+" goroutine", fun.Pos(), fun.Body)
		target = lit.ID
	default:
		if id, _, _ := w.resolveCallee(g.Call); id != "" {
			target = id
		}
	}
	w.f.Spawns = append(w.f.Spawns, GoSpawn{Pos: g.Pos(), Target: target})
}

func (w *lockWalker) litID() FuncID {
	return FuncID(fmt.Sprintf("%s$%d", w.f.ID, len(w.f.Spawns)+len(w.f.Calls)))
}

// scanExpr records receives, calls and nested literals inside an
// expression tree.
func (w *lockWalker) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal's body executes when called, not here; summarize
			// it as its own pseudo-function with an empty held set.
			w.b.walkFunc(w.litID(), w.f.Name+" closure", x.Pos(), x.Body)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.f.ExitSignal = true
				w.block("channel receive", x.OpPos)
			}
		case *ast.CallExpr:
			w.recordCall(x)
		}
		return true
	})
}

// recordCall classifies one call expression: named blocking operation,
// WaitGroup/Cond wait, or a plain call site for the graph.
func (w *lockWalker) recordCall(call *ast.CallExpr) {
	if isWaitGroupDone(w.b.pkg.Info, call) {
		w.f.WGDone = true
		return
	}
	if name, ok := syncWaitCall(w.b.pkg.Info, call); ok {
		w.block(name, call.Pos())
		return
	}
	id, ifaceSig, method := w.resolveCallee(call)
	if roundTripCalls[method] {
		w.block("call to "+method, call.Pos())
	}
	if id == "" && ifaceSig == "" {
		return
	}
	w.f.Calls = append(w.f.Calls, CallSite{
		Pos: call.Pos(), Callee: id, IfaceSig: ifaceSig, Method: method,
		Held: w.heldSnapshot(),
	})
}

// resolveCallee statically resolves a call's target: a FuncID for direct
// calls, an interface method-set signature for interface dispatch.
func (w *lockWalker) resolveCallee(call *ast.CallExpr) (FuncID, string, string) {
	info := w.b.pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return funcObjID(fn), "", fn.Name()
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return "", "", fun.Sel.Name
		}
		if sel, ok := info.Selections[fun]; ok {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return "", ifaceSignature(iface), fn.Name()
			}
		}
		return funcObjID(fn), "", fn.Name()
	}
	return "", "", ""
}

// funcObjID derives a FuncID from a types.Func object.
func funcObjID(fn *types.Func) FuncID {
	if fn.Pkg() == nil {
		return ""
	}
	owner := fn.Pkg().Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if tn := namedName(sig.Recv().Type()); tn != "" {
			owner = owner + "." + tn
		}
	}
	return FuncID(owner + "." + fn.Name())
}

// ifaceSignature renders an interface's sorted method names.
func ifaceSignature(iface *types.Interface) string {
	if iface.NumMethods() == 0 {
		return ""
	}
	names := make([]string, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		names[i] = iface.Method(i).Name()
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// lockTransition handles m.Lock/RLock/Unlock/RUnlock calls, updating the
// held model. Returns true when the call was a lock transition.
func (w *lockWalker) lockTransition(call *ast.CallExpr, deferred bool) bool {
	mutexExpr, method, ok := mutexMethod(w.b.pkg.Info, call)
	if !ok {
		return false
	}
	class, key := w.lockClass(mutexExpr)
	switch method {
	case "Lock", "RLock":
		if deferred {
			return true // defer m.Lock() is nonsense; ignore
		}
		use := LockUse{Class: class, Pos: call.Pos()}
		w.f.Acquires = append(w.f.Acquires, use)
		for _, h := range w.held {
			w.f.Edges = append(w.f.Edges, LockEdge{From: h.class, To: class, Pos: call.Pos()})
		}
		w.held = append(w.held, heldEntry{class: class, key: key, pos: call.Pos()})
	case "Unlock", "RUnlock":
		if deferred {
			for i := range w.held {
				if w.held[i].key == key {
					w.held[i].deferred = true
				}
			}
			return true
		}
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i].key == key && !w.held[i].deferred {
				w.held = append(w.held[:i], w.held[i+1:]...)
				break
			}
		}
	}
	return true
}

// lockClass abstracts a mutex instance expression to its class key and an
// instance key for unlock matching.
func (w *lockWalker) lockClass(e ast.Expr) (class, key string) {
	key = types.ExprString(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if owner := typeFullName(w.b.pkg.Info.TypeOf(x.X)); owner != "" {
			return strings.TrimPrefix(owner, "*") + "." + x.Sel.Name, key
		}
	case *ast.Ident:
		if obj := w.b.pkg.Info.ObjectOf(x); obj != nil {
			if obj.Parent() == w.b.pkg.Types.Scope() {
				return w.b.pkg.Path + "." + x.Name, key
			}
			return string(w.f.ID) + ".local." + x.Name, key
		}
	}
	return string(w.f.ID) + "." + key, key
}

func (w *lockWalker) block(what string, pos token.Pos) {
	w.f.Blocks = append(w.f.Blocks, BlockOp{What: what, Pos: pos, Held: w.heldSnapshot()})
}

func (w *lockWalker) hazard(what string, pos token.Pos) {
	if w.f.Hazard == "" {
		w.f.Hazard, w.f.HazardPos = what, pos
	}
}

// mutexMethod matches <expr>.Lock()/RLock()/Unlock()/RUnlock() where the
// receiver is (or embeds) a sync.Mutex or sync.RWMutex.
func mutexMethod(info *types.Info, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// isWaitGroupDone matches wg.Done() / wg.Add on a sync.WaitGroup... only
// Done counts as join discipline.
func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	name, ok := namedFrom(info.TypeOf(sel.X), "sync")
	return ok && name == "WaitGroup"
}

// syncWaitCall matches blocking Waits: sync.WaitGroup.Wait and
// sync.Cond.Wait.
func syncWaitCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return "", false
	}
	name, ok := namedFrom(info.TypeOf(sel.X), "sync")
	if !ok {
		return "", false
	}
	switch name {
	case "WaitGroup":
		return "sync.WaitGroup.Wait", true
	case "Cond":
		return "sync.Cond.Wait", true
	}
	return "", false
}

// isChannelType reports whether t is a channel.
func isChannelType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// loopCanExit reports whether a condition-less for body contains a way
// out: a return, a break, a panic, or a channel-tied operation (which
// ties the loop's fate to a closable channel instead of spinning).
func loopCanExit(body *ast.BlockStmt) bool {
	can := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			can = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK || x.Tok == token.GOTO {
				can = true
			}
		case *ast.SelectStmt:
			can = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				can = true
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
				can = true
			}
		}
		return !can
	})
	return can
}

package analysis

// The lockorder analyzer guards the mediator tier's deadlock freedom.
// The system is deeply concurrent — E16 admission queues, the sharded
// plancache, E18 inter-node links, the morsel governor — and its two
// deadlock shapes are exactly the two this check reports:
//
//  1. Blocking under a lock: a channel operation, WaitGroup/Cond wait,
//     or a call into the transfer/execute layer (Transfer,
//     ExecuteCtx, SendFragment, ...) performed while a sync.Mutex or
//     RWMutex is held. A blocked holder stalls every other acquirer —
//     in the worst case (the peer needs the same lock to make the
//     blocking operation complete) forever.
//  2. Lock-order cycles: if one code path acquires A then B and another
//     acquires B then A, two goroutines can deadlock. The per-function
//     facts record every "held X while acquiring Y" edge, including
//     edges that only exist interprocedurally (held X here, callee
//     acquires Y three frames down); the global pass reports every
//     strongly-connected component of the resulting class graph.
//
// Both checks consume the facts layer: blocking is propagated through
// the static call graph, so holding a lock across a call whose callee's
// callee blocks is reported at the call site that held the lock.

import (
	"go/token"
	"sort"
	"strings"
)

var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "no blocking operations while holding a mutex; no cycles in the global lock-order graph",
	Run:       runLockOrder,
	RunGlobal: runLockOrderGlobal,
}

// heldNames renders a held-lock set for a diagnostic.
func heldNames(held []LockUse) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = shortClass(h.Class)
	}
	return strings.Join(names, ", ")
}

// shortClass drops the import-path prefix of a lock class for readability.
func shortClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

func runLockOrder(p *Pass) {
	for _, f := range p.Facts.PkgFuncs[p.Path] {
		// Direct blocking operations under a held lock. A named blocking
		// call (Transfer, ...) is also a call site; remember the
		// position so the propagated pass below doesn't report it twice.
		reported := make(map[token.Pos]bool)
		for _, b := range f.Blocks {
			if len(b.Held) == 0 {
				continue
			}
			reported[b.Pos] = true
			p.Reportf(b.Pos, "%s while holding %s: a blocked holder stalls every other acquirer (unlock first, or make the operation non-blocking)",
				b.What, heldNames(b.Held))
		}
		// Calls under a held lock whose (transitive) body blocks.
		for i := range f.Calls {
			cs := &f.Calls[i]
			if len(cs.Held) == 0 || reported[cs.Pos] {
				continue
			}
			for _, target := range p.Facts.Callees(cs) {
				tf := p.Facts.Funcs[target]
				if why := p.Facts.TransBlocking(target); why != "" {
					p.Reportf(cs.Pos, "call to %s while holding %s blocks: %s",
						tf.Name, heldNames(cs.Held), why)
					break
				}
			}
		}
	}
}

// runLockOrderGlobal builds the whole-program lock-order graph and
// reports its cycles.
func runLockOrderGlobal(g *GlobalPass) {
	type edgeRef struct {
		pos  token.Position
		desc string
	}
	edges := make(map[string]map[string]edgeRef)
	// Self-edges (A held while acquiring another A) are kept: they report
	// below as a cycle of one, the recursive-acquisition deadlock.
	addEdge := func(from, to string, pos token.Position, desc string) {
		m := edges[from]
		if m == nil {
			m = make(map[string]edgeRef)
			edges[from] = m
		}
		if _, dup := m[to]; !dup {
			m[to] = edgeRef{pos: pos, desc: desc}
		}
	}

	// Deterministic iteration: packages sorted by path, functions in
	// declaration order.
	paths := make([]string, 0, len(g.Facts.PkgFuncs))
	for path := range g.Facts.PkgFuncs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		for _, f := range g.Facts.PkgFuncs[path] {
			for _, e := range f.Edges {
				addEdge(e.From, e.To, f.Pkg.Fset.Position(e.Pos),
					"acquired directly in "+f.Name)
			}
			for i := range f.Calls {
				cs := &f.Calls[i]
				if len(cs.Held) == 0 {
					continue
				}
				for _, target := range g.Facts.Callees(cs) {
					for class := range g.Facts.TransAcquires(target) {
						for _, h := range cs.Held {
							addEdge(h.Class, class, f.Pkg.Fset.Position(cs.Pos),
								"acquired via call to "+g.Facts.Funcs[target].Name)
						}
					}
				}
			}
		}
	}

	// Tarjan SCC over the class graph: every SCC with more than one
	// class, or with a self-edge, is a potential deadlock.
	nodes := make([]string, 0, len(edges))
	seen := make(map[string]bool)
	for from, tos := range edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}

	for _, scc := range sccs {
		selfLoop := len(scc) == 1 && func() bool {
			_, ok := edges[scc[0]][scc[0]]
			return ok
		}()
		if len(scc) < 2 && !selfLoop {
			continue
		}
		sort.Strings(scc)
		short := make([]string, len(scc))
		for i, c := range scc {
			short[i] = shortClass(c)
		}
		// Anchor the report at the lexically-smallest edge inside the SCC.
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		var at edgeRef
		for _, from := range scc {
			for to, ref := range edges[from] {
				if !inSCC[to] {
					continue
				}
				if at.pos.Filename == "" || ref.pos.Filename < at.pos.Filename ||
					(ref.pos.Filename == at.pos.Filename && ref.pos.Line < at.pos.Line) {
					at = ref
				}
			}
		}
		if selfLoop {
			g.Reportf(at.pos, "lock-order cycle: %s is acquired while already held (%s)",
				short[0], at.desc)
			continue
		}
		g.Reportf(at.pos, "lock-order cycle between %s: opposite acquisition orders can deadlock (%s)",
			strings.Join(short, ", "), at.desc)
	}
}

package federation

import (
	"context"
	"fmt"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// fragmentRuntime is the exec.Runtime of one pushed-down fragment at a
// table-backed source. It binds each Scan to its local table and picks the
// scan's access path: the rows an index probe finds when the operators
// directly above the scan demand `col = key` or `col IN (keys…)` of an
// indexed column, where a key is a literal or a parameter of the template
// the fragment belongs to, the whole heap otherwise.
//
// The fragment itself is never rewritten. Its filters and projections run
// unchanged over whatever the scan is fed, so a probe only has to return a
// superset of the rows its conjunct accepts, in heap order — no residual
// predicate is split off and none can be lost. What narrowing does change
// is which rows the fragment's other expressions see: one that would have
// failed on a row the probe leaves out (a division by a zero column, say)
// no longer fails, as under any indexed DBMS.
type fragmentRuntime struct {
	src     *tableBacked
	root    plan.Node
	scratch *exec.Scratch
	// params are the values of the template the fragment is run from, nil
	// for a template without parameters.
	params []datum.Datum
	// scans are a prepared fragment's access paths, one per scan; nil
	// derives each scan's when the scan is built.
	scans []scanAccess
	// keys is a filter the mediator put over the prepared fragment for
	// this fetch alone (a semi-join's key filter), nil for none.
	keys *plan.Filter
}

// scanAccess is one scan's access path: the conjuncts of its filter chain
// an index may serve, in the order they are tried. open reports that the
// chain runs up to the fragment's root, so that a filter put over the
// fragment heads it.
type scanAccess struct {
	scan   *plan.Scan
	probes []probeSpec
	open   bool
}

// probeSpec is one conjunct an index may serve: `col = key`, or, with key
// nil, `col IN (list…)`; col is a schema offset of the scanned table.
type probeSpec struct {
	col  int
	key  sqlparse.Expr
	list []sqlparse.Expr
}

// ScanTable implements exec.Runtime.
func (rt *fragmentRuntime) ScanTable(_ context.Context, scan *plan.Scan) ([]datum.Row, error) {
	if scan.Source != rt.src.name {
		return nil, fmt.Errorf("federation: source %s asked to scan foreign table %s.%s", rt.src.name, scan.Source, scan.Table)
	}
	t, err := rt.src.table(scan.Table)
	if err != nil {
		return nil, err
	}
	var buf [4]probeSpec
	probes := buf[:0]
	if rt.scans == nil {
		probes = prepareAccess(probes, t, rt.root, scan).probes
	}
	for i := range rt.scans {
		if a := &rt.scans[i]; a.scan == scan {
			probes = a.probes
			if rt.keys != nil && a.open {
				probes = appendConjuncts(buf[:0], t, rt.keys.Input, rt.keys.Cond)
				probes = append(probes, a.probes...)
			}
			break
		}
	}
	for _, p := range probes {
		if rows, ok := rt.probe(t, p); ok {
			return rows, nil
		}
	}
	// The heap's own header slice: storage never writes a published one
	// and the exec layer never mutates batch rows, so a scan copies
	// nothing. The engine copies rows that reach callers.
	return t.Snapshot(), nil
}

// prepareAccess is the access path of scan, a scan of t in the fragment
// root, its probes appended to dst: the conjuncts of each Filter from the
// head of the scan's filter chain down to the scan. The chain is found
// from the scan node itself, never by table name: the two scans of a
// pushed-down self-join each get their own filters. A node shared between
// two places in the plan has no single chain, and gets no probe.
func prepareAccess(dst []probeSpec, t *storage.Table, root plan.Node, scan *plan.Scan) scanAccess {
	chain := scanChain{scan: scan}
	chain.find(root, nil)
	a := scanAccess{scan: scan, probes: dst}
	if chain.hits == 1 {
		a.probes, a.open = appendChainProbes(dst, t, chain.top), chain.top == root
	}
	return a
}

// appendChainProbes appends the conjuncts of each Filter from top, the
// head of a scan's filter chain, down to the scan.
func appendChainProbes(dst []probeSpec, t *storage.Table, top plan.Node) []probeSpec {
	for n := top; ; {
		switch x := n.(type) {
		case *plan.Filter:
			dst = appendConjuncts(dst, t, x.Input, x.Cond)
			n = x.Input
		case *plan.Project:
			n = x.Input
		case *plan.Scan:
			return dst
		default:
			panic(fmt.Sprintf("federation: %T inside a scan's filter chain", n))
		}
	}
}

// RunRemote implements exec.Runtime.
func (rt *fragmentRuntime) RunRemote(context.Context, string, plan.Node) ([]datum.Row, error) {
	return nil, fmt.Errorf("federation: nested Remote inside a pushed-down subtree")
}

// scanChain locates the unbroken run of Filter and Project nodes that ends
// at one scan: every row the scan emits passes through exactly these
// before any other operator (a join, a limit, an aggregate) can see it.
type scanChain struct {
	scan *plan.Scan
	top  plan.Node // head of the run; the scan itself when nothing is stacked on it
	hits int       // times the scan occurs in the fragment
}

// find walks n's subtree; top is the head of the Filter/Project run n
// continues, nil when n's parent is any other operator. It runs once per
// scan on the warm path and allocates nothing.
func (c *scanChain) find(n, top plan.Node) {
	if s, ok := n.(*plan.Scan); ok {
		if s == c.scan {
			c.hits++
			c.top = top
			if top == nil {
				c.top = s
			}
		}
		return
	}
	switch n.(type) {
	case *plan.Filter, *plan.Project:
		if top == nil {
			top = n
		}
	default:
		top = nil // any other operator ends the run
	}
	plan.MapInputs(nil, n, func(in plan.Node) plan.Node {
		c.find(in, top)
		return in
	})
}

// probeRowsPerKey sizes a probe's buffers: that many matches per key fit
// before the buffers grow on the heap.
const probeRowsPerKey = 8

// appendConjuncts descends cond's top-level ANDs, whose every operand must
// hold for a row to pass, and appends every operand of the form
// `col = key`, `key = col` or `col IN (keys…)` whose column is a base
// column of the scan under input, where a key is a literal or a
// parameter. Anything else — OR, NOT IN, a column against a column, a list
// with any other item — is left to the filter.
func appendConjuncts(dst []probeSpec, t *storage.Table, input plan.Node, cond sqlparse.Expr) []probeSpec {
	if in, isIn := cond.(*sqlparse.InExpr); isIn {
		ref, isRef := in.Child.(*sqlparse.ColumnRef)
		if !isRef || in.Not || !allKeys(in.List) {
			return dst
		}
		if col, ok := baseColumn(input, ref); ok {
			dst = append(dst, probeSpec{col: col, list: in.List})
		}
		return dst
	}
	bin, isBin := cond.(*sqlparse.BinaryExpr)
	if !isBin {
		return dst
	}
	switch bin.Op {
	case sqlparse.OpAnd:
		return appendConjuncts(appendConjuncts(dst, t, input, bin.Left), t, input, bin.Right)
	case sqlparse.OpEq:
		ref, key := columnAndKey(bin.Left, bin.Right)
		if ref == nil {
			if ref, key = columnAndKey(bin.Right, bin.Left); ref == nil {
				return dst
			}
		}
		if col, ok := baseColumn(input, ref); ok && col < t.Schema().Arity() {
			dst = append(dst, probeSpec{col: col, key: key})
		}
	}
	return dst
}

// allKeys reports whether every item of list is a literal or a parameter.
func allKeys(list []sqlparse.Expr) bool {
	for _, item := range list {
		if !isKey(item) {
			return false
		}
	}
	return true
}

func isKey(e sqlparse.Expr) bool {
	switch e.(type) {
	case *sqlparse.Literal, *sqlparse.Param:
		return true
	}
	return false
}

// columnAndKey returns a and b as a column reference and a key, nils when
// they are not that pair in that order.
func columnAndKey(a, b sqlparse.Expr) (*sqlparse.ColumnRef, sqlparse.Expr) {
	ref, isRef := a.(*sqlparse.ColumnRef)
	if !isRef || !isKey(b) {
		return nil, nil
	}
	return ref, b
}

// probe reads t through an index for p, with its keys' values: ok is
// false when a key has no value (an unbound parameter), when `=` would
// compare kinds that IN merely fails to match — such a predicate is left
// to raise its error in the filter — or when no index serves p.
func (rt *fragmentRuntime) probe(t *storage.Table, p probeSpec) ([]datum.Row, bool) {
	var one [1]datum.Datum
	keys := one[:]
	if p.key != nil {
		v, ok := keyValue(p.key, rt.params)
		if !ok || !datum.Comparable(t.Schema().Columns[p.col].Kind, v.Kind()) {
			return nil, false
		}
		keys[0] = v
	} else {
		keys = exec.Make[datum.Datum](rt.scratch, len(p.list))
		for i, item := range p.list {
			v, ok := keyValue(item, rt.params)
			if !ok {
				return nil, false
			}
			keys[i] = v
		}
	}
	n := probeRowsPerKey * len(keys)
	return t.Probe(p.col, keys, exec.Make[int32](rt.scratch, n), exec.Make[datum.Row](rt.scratch, n))
}

// baseColumn resolves ref, a reference over n's output columns, down the
// filter chain to the offset of the scan column it reads: through a Filter
// unchanged, through a Project only where the output is itself a plain
// column reference (renamed or not). Resolution is by name at every level,
// exactly as exec.Compile binds the same reference.
func baseColumn(n plan.Node, ref *sqlparse.ColumnRef) (int, bool) {
	switch x := n.(type) {
	case *plan.Scan:
		return plan.FindColumn(x.Cols, ref)
	case *plan.Filter:
		return baseColumn(x.Input, ref)
	case *plan.Project:
		i, ok := plan.FindColumn(x.Cols, ref)
		if !ok {
			return 0, false
		}
		inner, isRef := x.Exprs[i].(*sqlparse.ColumnRef)
		if !isRef {
			return 0, false
		}
		return baseColumn(x.Input, inner)
	default:
		panic(fmt.Sprintf("federation: %T inside a scan's filter chain", n))
	}
}

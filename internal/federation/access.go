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
// directly above the scan demand `col = literal` or `col IN (literals)` of
// an indexed column, the whole heap otherwise.
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
	// The chain is found from the scan node itself, never by table name:
	// the two scans of a pushed-down self-join each get their own filters.
	// A node shared between two places in the plan has no single chain.
	chain := scanChain{scan: scan}
	chain.find(rt.root, nil)
	if chain.hits == 1 {
		if rows, ok := rt.probeChain(t, chain.top); ok {
			return rows, nil
		}
	}
	// The heap's own header slice: storage never writes a published one
	// and the exec layer never mutates batch rows, so a scan copies
	// nothing. The engine copies rows that reach callers.
	return t.Snapshot(), nil
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
	plan.MapInputs(n, func(in plan.Node) plan.Node {
		c.find(in, top)
		return in
	})
}

// probeChain tries the conjuncts of each Filter from the head of the run
// down to the scan and returns the first probe an index serves.
func (rt *fragmentRuntime) probeChain(t *storage.Table, top plan.Node) ([]datum.Row, bool) {
	for n := top; ; {
		switch x := n.(type) {
		case *plan.Filter:
			if rows, ok := rt.probeConjuncts(t, x.Input, x.Cond); ok {
				return rows, true
			}
			n = x.Input
		case *plan.Project:
			n = x.Input
		case *plan.Scan:
			return nil, false
		default:
			panic(fmt.Sprintf("federation: %T inside a scan's filter chain", n))
		}
	}
}

// probeRowsPerKey sizes a probe's buffers: that many matches per key fit
// before the buffers grow on the heap.
const probeRowsPerKey = 8

// probeConjuncts descends cond's top-level ANDs, whose every operand must
// hold for a row to pass, and probes on the first operand of the form
// `col = literal`, `literal = col` or `col IN (literals…)` whose column is a
// base column of the scan under input with an index on it. Anything else —
// OR, NOT IN, a column against a column, a list with a non-literal item, an
// unbound parameter — is left to the filter.
func (rt *fragmentRuntime) probeConjuncts(t *storage.Table, input plan.Node, cond sqlparse.Expr) ([]datum.Row, bool) {
	if in, isIn := cond.(*sqlparse.InExpr); isIn {
		ref, isRef := in.Child.(*sqlparse.ColumnRef)
		if !isRef || in.Not {
			return nil, false
		}
		col, ok := baseColumn(input, ref)
		if !ok {
			return nil, false
		}
		keys := rt.scratch.MakeDatums(len(in.List))[:0]
		for _, item := range in.List {
			lit, isLit := item.(*sqlparse.Literal)
			if !isLit {
				return nil, false
			}
			keys = append(keys, lit.Value)
		}
		return rt.probe(t, col, keys)
	}
	bin, isBin := cond.(*sqlparse.BinaryExpr)
	if !isBin {
		return nil, false
	}
	switch bin.Op {
	case sqlparse.OpAnd:
		if rows, ok := rt.probeConjuncts(t, input, bin.Left); ok {
			return rows, true
		}
		return rt.probeConjuncts(t, input, bin.Right)
	case sqlparse.OpEq:
		ref, lit := columnAndLiteral(bin.Left, bin.Right)
		if ref == nil {
			if ref, lit = columnAndLiteral(bin.Right, bin.Left); ref == nil {
				return nil, false
			}
		}
		col, ok := baseColumn(input, ref)
		// `=` refuses to compare kinds that IN merely fails to match; such
		// a predicate is left to raise its error in the filter.
		if !ok || col >= t.Schema().Arity() ||
			!datum.Comparable(t.Schema().Columns[col].Kind, lit.Value.Kind()) {
			return nil, false
		}
		key := [1]datum.Datum{lit.Value}
		return rt.probe(t, col, key[:])
	}
	return nil, false
}

// columnAndLiteral returns a and b as a column reference and a literal,
// nils when they are not that pair in that order.
func columnAndLiteral(a, b sqlparse.Expr) (*sqlparse.ColumnRef, *sqlparse.Literal) {
	ref, isRef := a.(*sqlparse.ColumnRef)
	lit, isLit := b.(*sqlparse.Literal)
	if !isRef || !isLit {
		return nil, nil
	}
	return ref, lit
}

func (rt *fragmentRuntime) probe(t *storage.Table, col int, keys []datum.Datum) ([]datum.Row, bool) {
	n := probeRowsPerKey * len(keys)
	return t.Probe(col, keys, rt.scratch.MakeInt32s(n), rt.scratch.MakeRows(n))
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

// Package plan defines the logical query plan and the builder that turns a
// parsed SELECT into a plan: name resolution, mediated-view unfolding (query
// reformulation in the paper's terms), and the normalizations the optimizer
// relies on.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datum"
	"repro/internal/sqlparse"
)

// ColMeta describes one output column of a plan node.
type ColMeta struct {
	// Table is the binding qualifier (table alias, view alias, or "").
	Table string
	// Name is the column's name within the qualifier.
	Name string
	// Kind is the inferred type; KindNull when unknown.
	Kind datum.Kind
}

// QualifiedName renders the column for diagnostics.
func (c ColMeta) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Node is a logical plan operator. Its inputs are reached through
// MapInputs, the one function that knows every operator's input fields.
type Node interface {
	// Columns returns the output schema of the node.
	Columns() []ColMeta
	// Describe renders a one-line summary for EXPLAIN output.
	Describe() string
	// node seals the interface: every operator is declared in this package.
	node()
}

func (*Scan) node()      {}
func (*Filter) node()    {}
func (*Project) node()   {}
func (*Join) node()      {}
func (*Aggregate) node() {}
func (*Sort) node()      {}
func (*Limit) node()     {}
func (*Distinct) node()  {}
func (*Union) node()     {}
func (*Remote) node()    {}

// Scan reads one table of one source.
type Scan struct {
	Source string
	Table  string
	Alias  string // binding name; never empty after building
	Cols   []ColMeta
}

// Columns implements Node.
func (s *Scan) Columns() []ColMeta { return s.Cols }

// Describe implements Node.
func (s *Scan) Describe() string {
	return fmt.Sprintf("Scan %s.%s AS %s", s.Source, s.Table, s.Alias)
}

// Filter keeps rows for which Cond evaluates to TRUE.
type Filter struct {
	Input Node
	Cond  sqlparse.Expr
	// Parallel is the optimizer's worker-count hint for morsel-driven
	// evaluation; 0/1 means sequential. The executor caps it at its
	// configured parallelism.
	Parallel int
}

// Columns implements Node.
func (f *Filter) Columns() []ColMeta { return f.Input.Columns() }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter " + f.Cond.SQL() }

// Project computes expressions over its input.
type Project struct {
	Input Node
	Exprs []sqlparse.Expr
	Cols  []ColMeta // one per expr; Name holds the output alias
	// Parallel is the optimizer's worker-count hint (see Filter.Parallel).
	Parallel int
}

// Columns implements Node.
func (p *Project) Columns() []ColMeta { return p.Cols }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.SQL()
	}
	return "Project " + strings.Join(parts, ", ")
}

// SemiJoinHint tells the executor which join input (if any) should be
// fetched reduced by the other side's join keys.
type SemiJoinHint uint8

// Semi-join orientations.
const (
	SemiJoinNone SemiJoinHint = iota
	// SemiJoinReduceRight ships the left input's keys into the right
	// Remote.
	SemiJoinReduceRight
	// SemiJoinReduceLeft ships the right input's keys into the left
	// Remote (inner joins only; reducing the preserved side of an outer
	// join would drop rows).
	SemiJoinReduceLeft
)

// DefaultSemiJoinKeyCap bounds how many distinct keys a semi-join ships
// as an exact IN-list; past it the executor switches to shipping a bloom
// filter of the keys instead (see DefaultBloomKeyCap).
const DefaultSemiJoinKeyCap = 512

// DefaultBloomKeyCap bounds how many distinct probe keys a semi-join will
// summarize into a shipped bloom filter. Beyond the IN-list cap a filter
// costs ~10 bits/key regardless of key width, so reduction stays
// worthwhile far past the exact-list cliff; beyond this cap the filter
// itself is large enough that the executor falls back to a full fetch.
const DefaultBloomKeyCap = 64 * 1024

// Join combines two inputs. Cond may be nil for a cross join.
type Join struct {
	Type        sqlparse.JoinType
	Left, Right Node
	Cond        sqlparse.Expr
	// SemiJoin is the optimizer's reduction hint.
	SemiJoin SemiJoinHint
	// Parallel is the optimizer's worker-count hint for partitioned hash
	// build and morsel-parallel probe (see Filter.Parallel).
	Parallel int
	cols     []ColMeta
}

// NewJoin builds a join node, computing its output columns. LEFT joins mark
// right-side columns nullable by leaving kinds intact (nullability is not
// tracked per-plan-column).
func NewJoin(t sqlparse.JoinType, left, right Node, cond sqlparse.Expr) *Join {
	j := &Join{Type: t, Left: left, Right: right, Cond: cond}
	j.cols = append(append([]ColMeta{}, left.Columns()...), right.Columns()...)
	return j
}

// Columns implements Node.
func (j *Join) Columns() []ColMeta { return j.cols }

// Describe implements Node.
func (j *Join) Describe() string {
	s := j.Type.String()
	if j.Cond != nil {
		s += " ON " + j.Cond.SQL()
	} else {
		s = "CROSS " + s
	}
	return s
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Arg      sqlparse.Expr
	Distinct bool
	Star     bool // COUNT(*)
}

// SQL renders the aggregate call.
func (a AggSpec) SQL() string {
	f := &sqlparse.FuncExpr{Name: a.Func, Distinct: a.Distinct, Star: a.Star}
	if a.Arg != nil {
		f.Args = []sqlparse.Expr{a.Arg}
	}
	return f.SQL()
}

// Aggregate groups its input by the GroupBy expressions and computes the
// aggregates. Output columns: group columns first, then one per aggregate.
type Aggregate struct {
	Input   Node
	GroupBy []sqlparse.Expr
	Aggs    []AggSpec
	// Parallel is the optimizer's worker-count hint (see Filter.Parallel).
	Parallel int
	// Groups is the optimizer's estimate of how many groups the node
	// forms; 0 when unknown. The executor sizes its group table from it.
	Groups int
	cols   []ColMeta
}

// NewAggregate builds an aggregate node. Output columns are named by the
// rendered SQL of each expression so post-aggregation expressions resolve
// against them textually.
func NewAggregate(input Node, groupBy []sqlparse.Expr, aggs []AggSpec) *Aggregate {
	a := &Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs}
	for _, g := range groupBy {
		kind := datum.KindNull
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			if m, found := findCol(input.Columns(), cr); found {
				kind = m.Kind
			}
		}
		a.cols = append(a.cols, ColMeta{Name: g.SQL(), Kind: kind})
	}
	for _, sp := range aggs {
		kind := datum.KindFloat
		if sp.Func == "COUNT" {
			kind = datum.KindInt
		}
		a.cols = append(a.cols, ColMeta{Name: sp.SQL(), Kind: kind})
	}
	return a
}

// Columns implements Node.
func (a *Aggregate) Columns() []ColMeta { return a.cols }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.SQL())
	}
	aggs := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		aggs[i] = sp.SQL()
	}
	if len(parts) == 0 {
		return "Aggregate " + strings.Join(aggs, ", ")
	}
	return "Aggregate BY " + strings.Join(parts, ", ") + ": " + strings.Join(aggs, ", ")
}

// SortKey is one ordering expression.
type SortKey struct {
	Expr sqlparse.Expr
	Desc bool
}

// Sort orders its input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Columns implements Node.
func (s *Sort) Columns() []ColMeta { return s.Input.Columns() }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.SQL()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit returns at most Count rows after skipping Offset rows. Count < 0
// means no limit (offset only).
type Limit struct {
	Input  Node
	Count  int64
	Offset int64
}

// Columns implements Node.
func (l *Limit) Columns() []ColMeta { return l.Input.Columns() }

// Describe implements Node.
func (l *Limit) Describe() string {
	return fmt.Sprintf("Limit %d OFFSET %d", l.Count, l.Offset)
}

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

// Columns implements Node.
func (d *Distinct) Columns() []ColMeta { return d.Input.Columns() }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// Union concatenates its inputs (UNION ALL).
type Union struct {
	Inputs []Node
}

// Columns implements Node.
func (u *Union) Columns() []ColMeta { return u.Inputs[0].Columns() }

// Describe implements Node.
func (u *Union) Describe() string { return fmt.Sprintf("UnionAll (%d inputs)", len(u.Inputs)) }

// Remote marks a subtree the optimizer decided to push down to a single
// source. The execution runtime ships Child to that source's wrapper.
type Remote struct {
	Source string
	Child  Node
	// AllowKeyFilter records that the source can absorb an additional
	// key-list filter (PushFilter capability); the executor's semi-join
	// reduction uses it to ship join keys instead of whole tables.
	AllowKeyFilter bool
}

// Columns implements Node.
func (r *Remote) Columns() []ColMeta { return r.Child.Columns() }

// Describe implements Node.
func (r *Remote) Describe() string { return "Remote @" + r.Source }

// findCol resolves a column reference against a column list (see
// FindColumn).
func findCol(cols []ColMeta, ref *sqlparse.ColumnRef) (ColMeta, bool) {
	idx, ok := FindColumn(cols, ref)
	if !ok {
		return ColMeta{}, false
	}
	return cols[idx], true
}

// FindColumn returns the offset of the column referenced by ref within
// cols, or ok=false when the reference is missing or ambiguous: a qualified
// reference must match both qualifier and name, an unqualified one a
// unique name. When ok is false, idx is -1 for a missing reference and
// non-negative for an ambiguous one. It is the one resolution rule, and
// allocation-free, so callers that only test resolvability (estimation,
// pushdown eligibility, semi-join key extraction) call it directly;
// ResolveColumn adds the error.
func FindColumn(cols []ColMeta, ref *sqlparse.ColumnRef) (idx int, ok bool) {
	found := -1
	for i, c := range cols {
		if !strings.EqualFold(c.Name, ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Table, ref.Table) {
			continue
		}
		if found >= 0 {
			return i, false
		}
		found = i
	}
	return found, found >= 0
}

// RefsResolve reports whether every column reference in e resolves
// against cols (an expression without references trivially does).
func RefsResolve(e sqlparse.Expr, cols []ColMeta) bool {
	ok := true
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if ref, is := x.(*sqlparse.ColumnRef); is {
			if _, found := FindColumn(cols, ref); !found {
				ok = false
			}
		}
	})
	return ok
}

// EquiKeys splits a join condition into aligned equi-key pairs
// (leftKeys[i] = rightKeys[i]) and a residual predicate. leftCols and
// rightCols are the child output schemas; an equality qualifies when one
// side resolves entirely against the left child and the other against the
// right child.
func EquiKeys(cond sqlparse.Expr, leftCols, rightCols []ColMeta) (leftKeys, rightKeys []sqlparse.Expr, residual sqlparse.Expr) {
	var rest []sqlparse.Expr
	var buf [8]sqlparse.Expr
	for _, c := range sqlparse.AppendConjuncts(buf[:0], cond) {
		b, ok := c.(*sqlparse.BinaryExpr)
		if !ok || b.Op != sqlparse.OpEq {
			rest = append(rest, c)
			continue
		}
		switch {
		case RefsResolve(b.Left, leftCols) && RefsResolve(b.Right, rightCols):
			leftKeys = append(leftKeys, b.Left)
			rightKeys = append(rightKeys, b.Right)
		case RefsResolve(b.Left, rightCols) && RefsResolve(b.Right, leftCols):
			leftKeys = append(leftKeys, b.Right)
			rightKeys = append(rightKeys, b.Left)
		default:
			rest = append(rest, c)
		}
	}
	return leftKeys, rightKeys, sqlparse.CombineConjuncts(rest)
}

// ResolveColumn returns the offset of the column referenced by ref within
// cols. Ambiguous or missing references return an error.
func ResolveColumn(cols []ColMeta, ref *sqlparse.ColumnRef) (int, error) {
	idx, ok := FindColumn(cols, ref)
	switch {
	case ok:
		return idx, nil
	case idx >= 0:
		return 0, fmt.Errorf("plan: ambiguous column reference %q", ref.SQL())
	default:
		return 0, fmt.Errorf("plan: unknown column %q", ref.SQL())
	}
}

// MapInputs returns n with every input replaced by fn(input), in order
// (Join: left, then right). It is the plan tree's one traversal protocol:
// every pass that descends into a node's inputs goes through it, and it is
// the one place that knows which fields hold them. When fn returns every
// input unchanged, MapInputs returns n itself and allocates nothing;
// otherwise it returns a shallow copy with the new inputs. Join and
// Aggregate copies recompute their output columns and keep their hints.
// MapInputs never writes into n.
func MapInputs(n Node, fn func(Node) Node) Node {
	switch x := n.(type) {
	case *Scan:
		// A leaf.
	case *Filter:
		if in := fn(x.Input); in != x.Input {
			c := *x
			c.Input = in
			return &c
		}
	case *Project:
		if in := fn(x.Input); in != x.Input {
			c := *x
			c.Input = in
			return &c
		}
	case *Join:
		left, right := fn(x.Left), fn(x.Right)
		if left != x.Left || right != x.Right {
			c := NewJoin(x.Type, left, right, x.Cond)
			c.SemiJoin = x.SemiJoin
			c.Parallel = x.Parallel
			return c
		}
	case *Aggregate:
		if in := fn(x.Input); in != x.Input {
			c := NewAggregate(in, x.GroupBy, x.Aggs)
			c.Parallel, c.Groups = x.Parallel, x.Groups
			return c
		}
	case *Sort:
		if in := fn(x.Input); in != x.Input {
			c := *x
			c.Input = in
			return &c
		}
	case *Limit:
		if in := fn(x.Input); in != x.Input {
			c := *x
			c.Input = in
			return &c
		}
	case *Distinct:
		if in := fn(x.Input); in != x.Input {
			return &Distinct{Input: in}
		}
	case *Union:
		var inputs []Node // allocated at the first changed input
		for i, in := range x.Inputs {
			out := fn(in)
			if out != in && inputs == nil {
				inputs = append(make([]Node, 0, len(x.Inputs)), x.Inputs[:i]...)
			}
			if inputs != nil {
				inputs = append(inputs, out)
			}
		}
		if inputs != nil {
			return &Union{Inputs: inputs}
		}
	case *Remote:
		if in := fn(x.Child); in != x.Child {
			c := *x
			c.Child = in
			return &c
		}
	default:
		panic(fmt.Sprintf("plan: MapInputs missing case for %T", n))
	}
	return n
}

// Explain renders the plan tree indented, one node per line.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	MapInputs(n, func(in Node) Node {
		explain(b, in, depth+1)
		return in
	})
}

// Walk visits every node in the tree pre-order. It allocates nothing: it
// runs on every cached-plan execution (pushdown validation, tracing).
func Walk(n Node, fn func(Node)) {
	fn(n)
	MapInputs(n, func(in Node) Node {
		Walk(in, fn)
		return in
	})
}

// Transform rebuilds the tree bottom-up, applying fn to every node after
// its inputs have been transformed. A node is copied only when one of its
// inputs changed, so a pass that changes nothing allocates nothing and
// returns the root it was given.
func Transform(n Node, fn func(Node) Node) Node {
	return fn(MapInputs(n, func(in Node) Node { return Transform(in, fn) }))
}

// SourcesOf returns the distinct source names under the node, sorted.
func SourcesOf(n Node) []string {
	set := map[string]bool{}
	Walk(n, func(x Node) {
		if s, ok := x.(*Scan); ok {
			set[s.Source] = true
		}
	})
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

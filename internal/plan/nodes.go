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

// Node is a logical plan operator. Its inputs and expressions are reached
// through Map, the one function that knows every operator's fields.
type Node interface {
	// Columns returns the output schema of the node.
	Columns() []ColMeta
	// Describe renders a one-line summary for EXPLAIN output.
	Describe() string
	// EstRows returns the row estimate the node carries (see Estimate).
	EstRows() int64
	// node seals the interface: every operator is declared in this package.
	node()
}

// Estimate is the optimizer's row estimate of a node, which every operator
// embeds: the optimizer's last pass records it, and the executor's
// per-operator record reads it, so a plan runs with the numbers it was
// costed from and no execution estimates anything. A copy of a node —
// Map's, Retain's, a bound instance's — carries its original's, so a
// pass that changes a subtree leaves stale estimates above it until the
// optimizer's last pass records them again.
type Estimate struct {
	rows int64 // the estimate plus one, so that a node's zero value carries none
}

// EstRows returns the estimate, -1 when the node carries none.
func (e *Estimate) EstRows() int64 { return e.rows - 1 }

// SetEstRows records the estimate. Only the code that allocated the node
// may call it: a plan may be shared by any number of executions.
func (e *Estimate) SetEstRows(rows int64) { e.rows = rows + 1 }

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
	Estimate
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
	Estimate
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
	Estimate
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
	Estimate
	Type        sqlparse.JoinType
	Left, Right Node
	Cond        sqlparse.Expr
	// SemiJoin is the optimizer's reduction hint.
	SemiJoin SemiJoinHint
	// Reduce describes the reduced fetch the hint sends (see Reduced);
	// zero where it does not apply.
	Reduce Reduction
	// Parallel is the optimizer's worker-count hint for partitioned hash
	// build and morsel-parallel probe (see Filter.Parallel).
	Parallel int
	cols     []ColMeta
}

// NewJoin builds a join node from a (heap when a is nil), computing its
// output columns. LEFT joins mark right-side columns nullable by leaving
// kinds intact (nullability is not tracked per-plan-column).
func NewJoin(a *sqlparse.Arena, t sqlparse.JoinType, left, right Node, cond sqlparse.Expr) *Join {
	return sqlparse.New(a, Join{Type: t, Left: left, Right: right, Cond: cond, cols: joinColumns(a, left, right)})
}

// joinColumns concatenates the inputs' columns into one exactly sized
// list from a.
func joinColumns(a *sqlparse.Arena, left, right Node) []ColMeta {
	lc, rc := left.Columns(), right.Columns()
	cols := sqlparse.Make[ColMeta](a, len(lc)+len(rc))
	copy(cols[copy(cols, lc):], rc)
	return cols
}

// WithInputs returns a copy of j from a (heap when a is nil) over left and
// right, keeping its type, condition and hints. When both inputs produce
// the very column lists j's did — a pass changed only what lies below
// them — the copy shares j's column list instead of concatenating a new
// one. The shared list is capped, so appending to either join's Columns()
// copies it.
func (j *Join) WithInputs(a *sqlparse.Arena, left, right Node) *Join {
	c := sqlparse.New(a, *j)
	c.Left, c.Right = left, right
	if sameColumns(left.Columns(), j.Left.Columns()) && sameColumns(right.Columns(), j.Right.Columns()) {
		c.cols = j.cols[:len(j.cols):len(j.cols)]
	} else {
		c.cols = joinColumns(a, left, right)
	}
	return c
}

// sameColumns reports whether a and b are one column list: the same
// elements of the same backing array, not merely equal ones.
func sameColumns(a, b []ColMeta) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Columns implements Node.
func (j *Join) Columns() []ColMeta { return j.cols }

// Reduced returns the Remote j's semi-join hint reduces, and which of the
// equi-key pairs lk[i] = rk[i] (see AppendEquiKeys) its reduced fetch
// filters on: the first whose reduced side is a plain column of the
// Remote's child. ok is false when the hint does not apply: there is
// none, or the reduced side is no key-filtering Remote, or no pair has
// such a column.
func (j *Join) Reduced(lk, rk []sqlparse.Expr) (r *Remote, pair int, ok bool) {
	reduce, keys := j.Right, rk
	switch j.SemiJoin {
	case SemiJoinNone:
		return nil, 0, false
	case SemiJoinReduceLeft:
		reduce, keys = j.Left, lk
	}
	r, ok = reduce.(*Remote)
	if !ok || !r.AllowKeyFilter {
		return nil, 0, false
	}
	for i, e := range keys {
		if ref, isRef := e.(*sqlparse.ColumnRef); isRef {
			if _, found := FindColumn(r.Child.Columns(), ref); found {
				return r, i, true
			}
		}
	}
	return nil, 0, false
}

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
	Estimate
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

// NewAggregate builds an aggregate node from a (heap when a is nil).
// Output columns are named by the rendered SQL of each expression so
// post-aggregation expressions resolve against them textually.
func NewAggregate(a *sqlparse.Arena, input Node, groupBy []sqlparse.Expr, aggs []AggSpec) *Aggregate {
	return sqlparse.New(a, Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs, cols: aggregateColumns(a, input, groupBy, aggs)})
}

// aggregateColumns names an aggregate's output columns, group columns
// first, in one exactly sized list from a.
func aggregateColumns(a *sqlparse.Arena, input Node, groupBy []sqlparse.Expr, aggs []AggSpec) []ColMeta {
	cols := sqlparse.Make[ColMeta](a, len(groupBy)+len(aggs))[:0]
	for _, g := range groupBy {
		kind := datum.KindNull
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			if m, found := findCol(input.Columns(), cr); found {
				kind = m.Kind
			}
		}
		cols = append(cols, ColMeta{Name: g.SQL(), Kind: kind})
	}
	for _, sp := range aggs {
		kind := datum.KindFloat
		if sp.Func == "COUNT" {
			kind = datum.KindInt
		}
		cols = append(cols, ColMeta{Name: sp.SQL(), Kind: kind})
	}
	return cols
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
	Estimate
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
	Estimate
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
	Estimate
	Input Node
}

// Columns implements Node.
func (d *Distinct) Columns() []ColMeta { return d.Input.Columns() }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// Union concatenates its inputs (UNION ALL).
type Union struct {
	Estimate
	Inputs []Node
}

// Columns implements Node.
func (u *Union) Columns() []ColMeta { return u.Inputs[0].Columns() }

// Describe implements Node.
func (u *Union) Describe() string { return fmt.Sprintf("UnionAll (%d inputs)", len(u.Inputs)) }

// Remote marks a subtree the optimizer decided to push down to a single
// source. The execution runtime ships Child to that source's wrapper.
type Remote struct {
	Estimate
	Source string
	Child  Node
	// AllowKeyFilter records that the source can absorb an additional
	// key-list filter (PushFilter capability); the executor's semi-join
	// reduction uses it to ship join keys instead of whole tables.
	AllowKeyFilter bool
	// Stream is the feedback stream the fetch of Child feeds, the feedback
	// store's own record of it; nil when Child has no signature or the
	// plan was optimized without a store.
	Stream *Stream
}

// Stream names one feedback stream: the source and table a fetch reads,
// lowercased, and its masked predicate signature (see feedback.Renderer).
// The feedback store keeps one record per stream it has been asked for,
// and a plan points at that record, so every plan that feeds a stream
// shares its strings.
type Stream struct {
	Source string
	Table  string
	Sig    string
}

// Reduction is what the optimizer knows at compile time of a semi-join's
// reduced fetch, whose key list only the execution sees: the stream each
// form of it feeds and the numbers its row estimate derives from. Every
// form filters the reduced Remote's child on the key column: an IN-list
// of the probe side's distinct keys, a bloom filter of them past the
// IN-list cap, or FALSE when the probe side has none.
type Reduction struct {
	// Keyed is the stream of the IN-list and bloom forms, which render
	// alike; Empty is the stream of the FALSE form.
	Keyed, Empty *Stream
	// Rows is the child's row estimate before rounding. KeySel is the
	// fraction of it one shipped key keeps, never 0 in a Reduction the
	// optimizer recorded, and Unkeyed the rows a bloom filter or FALSE
	// keeps, whose hit rate is unknown at plan time.
	Rows, KeySel, Unkeyed float64
}

// Form returns the stream and the row estimate of the reduced fetch that
// ships keys keys, as a bloom filter when bloom is set, as an IN-list
// otherwise, and as FALSE when there are none; the estimate is rounded as
// the executor's records are. It is the optimizer's selectivity formula
// for such a filter: it depends on no key's value. The zero Reduction,
// where the optimizer recorded none, gives no stream and no estimate (-1).
func (r Reduction) Form(keys int, bloom bool) (*Stream, int64) {
	if r.KeySel == 0 {
		return nil, -1
	}
	stream, rows := r.Keyed, r.Unkeyed
	switch {
	case keys == 0:
		stream = r.Empty
	case !bloom:
		sel := r.KeySel * float64(keys)
		if sel > 1 {
			sel = 1
		}
		if sel < MinSelectivity {
			sel = MinSelectivity
		}
		rows = r.Rows * sel
	}
	if rows < 0 {
		return stream, 0
	}
	return stream, int64(rows)
}

// MinSelectivity is the floor the optimizer puts under a predicate's
// estimated selectivity.
const MinSelectivity = 1e-9

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

// AppendEquiKeys splits a join condition into aligned equi-key pairs
// (leftKeys[i] = rightKeys[i]), appended to leftKeys and rightKeys, and a
// residual predicate. leftCols and rightCols are the child output schemas;
// an equality qualifies when one side resolves entirely against the left
// child and the other against the right child. Like
// sqlparse.AppendConjuncts, a caller that only reads the keys passes stack
// buffers, and splitting allocates nothing.
func AppendEquiKeys(leftKeys, rightKeys []sqlparse.Expr, cond sqlparse.Expr, leftCols, rightCols []ColMeta) ([]sqlparse.Expr, []sqlparse.Expr, sqlparse.Expr) {
	var buf, restBuf [8]sqlparse.Expr
	rest := restBuf[:0]
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

// MapInputs returns n with every input replaced by fn(input): Map without
// an expression callback.
func MapInputs(a *sqlparse.Arena, n Node, fn func(Node) Node) Node {
	return Map(a, n, fn, nil)
}

// Map returns n with every input replaced by inputs(input), in order
// (Join: left, then right), and, when exprs is non-nil, every expression
// n holds replaced by exprs(expr), after the inputs: a Filter's or Join's
// condition, a Project's expressions, an Aggregate's group-by and then
// its arguments, a Sort's keys. A nil expression (a cross join's
// condition, COUNT(*)'s argument) is skipped. It is the plan tree's one
// traversal protocol: every pass that descends into a node's inputs or
// rewrites its expressions goes through it, and it is the one place that
// knows which fields hold them. When the callbacks return everything
// unchanged, Map returns n itself and allocates nothing; otherwise it
// returns one shallow copy, hints kept, allocated from a (heap when a is
// nil; see New), as is every list that changed. A copy keeps n's columns
// unless an input's column list changed: then a Join or Aggregate
// recomputes them, and otherwise shares n's list, capped (see
// Join.WithInputs). Map never writes into n.
func Map(a *sqlparse.Arena, n Node, inputs func(Node) Node, exprs func(sqlparse.Expr) sqlparse.Expr) Node {
	switch x := n.(type) {
	case *Scan:
		// A leaf.
	case *Filter:
		in, cond := inputs(x.Input), mapExpr(x.Cond, exprs)
		if in != x.Input || cond != x.Cond {
			c := sqlparse.New(a, *x)
			c.Input, c.Cond = in, cond
			return c
		}
	case *Project:
		in := inputs(x.Input)
		list, changed := mapList(a, x.Exprs, exprAt, exprs)
		if in != x.Input || changed {
			c := sqlparse.New(a, *x)
			c.Input, c.Exprs = in, list
			return c
		}
	case *Join:
		left, right := inputs(x.Left), inputs(x.Right)
		cond := mapExpr(x.Cond, exprs)
		if left != x.Left || right != x.Right || cond != x.Cond {
			c := x.WithInputs(a, left, right)
			c.Cond = cond
			return c
		}
	case *Aggregate:
		in := inputs(x.Input)
		groupBy, groupsChanged := mapList(a, x.GroupBy, exprAt, exprs)
		aggs, aggsChanged := mapList(a, x.Aggs, argAt, exprs)
		if in != x.Input || groupsChanged || aggsChanged {
			c := sqlparse.New(a, *x)
			c.Input, c.GroupBy, c.Aggs = in, groupBy, aggs
			if sameColumns(in.Columns(), x.Input.Columns()) {
				c.cols = x.cols[:len(x.cols):len(x.cols)]
			} else {
				c.cols = aggregateColumns(a, in, groupBy, aggs)
			}
			return c
		}
	case *Sort:
		in := inputs(x.Input)
		keys, changed := mapList(a, x.Keys, keyAt, exprs)
		if in != x.Input || changed {
			c := sqlparse.New(a, *x)
			c.Input, c.Keys = in, keys
			return c
		}
	case *Limit:
		if in := inputs(x.Input); in != x.Input {
			c := sqlparse.New(a, *x)
			c.Input = in
			return c
		}
	case *Distinct:
		if in := inputs(x.Input); in != x.Input {
			c := sqlparse.New(a, *x)
			c.Input = in
			return c
		}
	case *Union:
		var list []Node // allocated at the first changed input
		for i, in := range x.Inputs {
			out := inputs(in)
			if out != in && list == nil {
				list = sqlparse.Make[Node](a, len(x.Inputs))
				copy(list, x.Inputs[:i])
			}
			if list != nil {
				list[i] = out
			}
		}
		if list != nil {
			c := sqlparse.New(a, *x)
			c.Inputs = list
			return c
		}
	case *Remote:
		if in := inputs(x.Child); in != x.Child {
			c := sqlparse.New(a, *x)
			c.Child = in
			return c
		}
	default:
		panic(fmt.Sprintf("plan: Map missing case for %T", n))
	}
	return n
}

// mapExpr is exprs(e), or e itself when e or exprs is nil.
func mapExpr(e sqlparse.Expr, exprs func(sqlparse.Expr) sqlparse.Expr) sqlparse.Expr {
	if e == nil || exprs == nil {
		return e
	}
	return exprs(e)
}

// mapList maps the expression at(&list[i]) of every element through exprs.
// It returns list itself and false when nothing changed, and otherwise a
// copy from a, drawn at the first change, and true.
func mapList[T any](a *sqlparse.Arena, list []T, at func(*T) *sqlparse.Expr, exprs func(sqlparse.Expr) sqlparse.Expr) ([]T, bool) {
	if exprs == nil {
		return list, false
	}
	var out []T // allocated at the first changed element
	for i := range list {
		e := *at(&list[i])
		ne := mapExpr(e, exprs)
		if ne != e && out == nil {
			out = sqlparse.Make[T](a, len(list))
			copy(out, list)
		}
		if out != nil {
			*at(&out[i]) = ne
		}
	}
	if out == nil {
		return list, false
	}
	return out, true
}

// The expression of one element of a Project's or Aggregate's expression
// list, an Aggregate's aggregates and a Sort's keys, for mapList.
func exprAt(e *sqlparse.Expr) *sqlparse.Expr { return e }
func argAt(s *AggSpec) *sqlparse.Expr        { return &s.Arg }
func keyAt(k *SortKey) *sqlparse.Expr        { return &k.Expr }

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
	MapInputs(nil, n, func(in Node) Node {
		explain(b, in, depth+1)
		return in
	})
}

// Walk visits every node in the tree pre-order. It allocates nothing: it
// runs on every cached-plan execution (pushdown validation, tracing).
func Walk(n Node, fn func(Node)) {
	fn(n)
	MapInputs(nil, n, func(in Node) Node {
		Walk(in, fn)
		return in
	})
}

// Transform rebuilds the tree bottom-up, applying fn to every node after
// its inputs have been transformed. A node is copied, from a (heap when a
// is nil), only when one of its inputs changed, so a pass that changes
// nothing allocates nothing and returns the root it was given.
func Transform(a *sqlparse.Arena, n Node, fn func(Node) Node) Node {
	return fn(MapInputs(a, n, func(in Node) Node { return Transform(a, in, fn) }))
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

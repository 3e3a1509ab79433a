package opt

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// Default selectivities, following the System-R conventions.
const (
	selEq       = 0.1 // equality against a non-column when distinct unknown
	selRange    = 1.0 / 3.0
	selLike     = 0.25
	selDefault  = 1.0 / 3.0
	defaultRows = 1000
)

// mediatorRowCost is the virtual CPU time to process one row centrally;
// it prices mediator work in the same currency as network time.
const mediatorRowCost = 200 * time.Nanosecond

type estimator struct {
	env Env
	// fb is the runtime-cardinality feedback half of the environment, nil
	// for purely static planning. When set, Scan and Filter estimates are
	// confidence-blended with observed cardinalities (see blend).
	fb FeedbackEnv
	// rowsMemo caches Rows per node. Planning memoizes only the
	// feedback-blended Scans and Filters — join-order DP calls Rows on the
	// same nodes many times, and signature derivation is string work worth
	// paying once. With all set (an Estimator), every node is memoized,
	// and so is every feedback signature, in sigMemo.
	rowsMemo map[plan.Node]float64
	sigMemo  map[plan.Node]sigMemo
	all      bool
}

// sigMemo is feedback.Signature's result for one node.
type sigMemo struct {
	key feedback.Key
	ok  bool
}

// Memo misses, process-wide: how many memoized Rows evaluations and how
// many signature renderings estimators actually performed (tests read
// them through export_test.go).
var rowsEvaluated, signaturesRendered atomic.Int64

func newEstimator(env Env) *estimator {
	e := &estimator{}
	e.reset(env)
	return e
}

func (e *estimator) reset(env Env) {
	e.env = env
	e.fb, _ = env.(FeedbackEnv)
}

// blend reconciles a node's static estimate with the feedback store's
// observation of the same (source, table, predicate-signature) stream,
// weighting by the observation's confidence in log space (cardinality
// error is multiplicative). Observations within 2x of the static estimate
// are ignored entirely: when the catalog is right, adaptive planning must
// produce byte-for-byte the plans static planning does.
func (e *estimator) blend(n plan.Node, static float64) float64 {
	if e.fb == nil {
		return static
	}
	out := static
	if key, ok := e.signature(n); ok {
		if obs, ok := e.fb.Observed(key); ok {
			ratio := (obs.Rows + 1) / (static + 1)
			if ratio >= 2 || ratio <= 0.5 {
				c := obs.Confidence
				out = math.Exp((1-c)*math.Log1p(static)+c*math.Log1p(obs.Rows)) - 1
				if out < 0 {
					out = 0
				}
			}
		}
	}
	return out
}

// signature is feedback.Signature(n), rendered once per node by an
// Estimator.
func (e *estimator) signature(n plan.Node) (feedback.Key, bool) {
	if s, hit := e.sigMemo[n]; hit {
		return s.key, s.ok
	}
	signaturesRendered.Add(1)
	key, ok := feedback.Signature(n)
	if e.all {
		if e.sigMemo == nil {
			e.sigMemo = make(map[plan.Node]sigMemo)
		}
		e.sigMemo[n] = sigMemo{key, ok}
	}
	return key, ok
}

// tableStats fetches stats, fabricating defaults when the source offers
// none.
func (e *estimator) tableStats(source, table string, arity int) *schema.TableStats {
	if e.env != nil {
		if st := e.env.Stats(source, table); st != nil {
			return st
		}
	}
	st := &schema.TableStats{Rows: defaultRows, RowWidth: 16 + arity*12}
	st.Cols = make([]schema.ColStats, arity)
	for i := range st.Cols {
		st.Cols[i] = schema.ColStats{Distinct: defaultRows / 10, Min: datum.Null, Max: datum.Null}
	}
	return st
}

// Rows estimates the output cardinality of a node, memoized where the
// estimator memoizes it (see estimator.rowsMemo).
func (e *estimator) Rows(n plan.Node) float64 {
	if !e.memoized(n) {
		return e.rows(n)
	}
	if r, hit := e.rowsMemo[n]; hit {
		return r
	}
	rowsEvaluated.Add(1)
	r := e.rows(n)
	if e.rowsMemo == nil {
		e.rowsMemo = make(map[plan.Node]float64)
	}
	e.rowsMemo[n] = r
	return r
}

func (e *estimator) memoized(n plan.Node) bool {
	switch n.(type) {
	case *plan.Scan, *plan.Filter:
		return e.all || e.fb != nil
	}
	return e.all
}

// rows is Rows without the memo.
func (e *estimator) rows(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		if x.Source == "" && x.Table == "" {
			return 1 // FROM-less dual
		}
		return e.blend(x, float64(e.tableStats(x.Source, x.Table, len(x.Cols)).Rows))
	case *plan.Filter:
		return e.blend(x, e.Rows(x.Input)*e.selectivity(x.Cond, x.Input))
	case *plan.Project:
		return e.Rows(x.Input)
	case *plan.Join:
		return e.joinRows(x)
	case *plan.Aggregate:
		in := e.Rows(x.Input)
		if len(x.GroupBy) == 0 {
			return 1
		}
		groups := 1.0
		for _, g := range x.GroupBy {
			groups *= e.distinctOf(g, x.Input)
		}
		if groups > in {
			groups = in
		}
		if groups < 1 {
			groups = 1
		}
		return groups
	case *plan.Sort:
		return e.Rows(x.Input)
	case *plan.Limit:
		in := e.Rows(x.Input)
		if x.Count >= 0 && float64(x.Count) < in {
			return float64(x.Count)
		}
		return in
	case *plan.Distinct:
		return e.Rows(x.Input) / 2
	case *plan.Union:
		total := 0.0
		for _, in := range x.Inputs {
			total += e.Rows(in)
		}
		return total
	case *plan.Remote:
		return e.Rows(x.Child)
	default:
		return defaultRows
	}
}

// RowWidth estimates the serialized row width of a node's output.
func (e *estimator) RowWidth(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		if x.Source == "" && x.Table == "" {
			return 4
		}
		return float64(e.tableStats(x.Source, x.Table, len(x.Cols)).RowWidth)
	case *plan.Join:
		return e.RowWidth(x.Left) + e.RowWidth(x.Right)
	case *plan.Union:
		return e.RowWidth(x.Inputs[0])
	case *plan.Remote:
		return e.RowWidth(x.Child)
	default:
		// One input: its width, narrowed proportionally when the node
		// projects columns away.
		width := 32.0
		plan.MapInputs(n, func(in plan.Node) plan.Node {
			width = e.RowWidth(in)
			inCols, cols := len(in.Columns()), len(n.Columns())
			if inCols > 0 && cols < inCols {
				width *= float64(cols) / float64(inCols)
			}
			return in
		})
		return width
	}
}

// joinRows uses the classic |L|*|R| / max(V(L,k), V(R,k)) formula per
// equi-key, falling back to a fixed selectivity for theta joins.
func (e *estimator) joinRows(j *plan.Join) float64 {
	l := e.Rows(j.Left)
	r := e.Rows(j.Right)
	if j.Cond == nil {
		return l * r
	}
	sel := 1.0
	gotEqui := false
	var buf [8]sqlparse.Expr
	for _, c := range sqlparse.AppendConjuncts(buf[:0], j.Cond) {
		b, ok := c.(*sqlparse.BinaryExpr)
		if !ok || b.Op != sqlparse.OpEq {
			continue
		}
		lr, lok := b.Left.(*sqlparse.ColumnRef)
		rr, rok := b.Right.(*sqlparse.ColumnRef)
		if !lok || !rok {
			continue
		}
		dl := e.refDistinct(lr, j.Left, j.Right)
		dr := e.refDistinct(rr, j.Left, j.Right)
		d := dl
		if dr > d {
			d = dr
		}
		if d < 1 {
			d = 10
		}
		sel /= d
		gotEqui = true
	}
	if !gotEqui {
		sel = selDefault
	}
	out := l * r * sel
	if j.Type == sqlparse.JoinLeft && out < l {
		out = l // every left row survives
	}
	if out < 1 {
		out = 1
	}
	return out
}

// refDistinct finds the distinct count of a column reference in either
// join input.
func (e *estimator) refDistinct(ref *sqlparse.ColumnRef, sides ...plan.Node) float64 {
	for _, side := range sides {
		if _, ok := plan.FindColumn(side.Columns(), ref); ok {
			return e.distinctOf(ref, side)
		}
	}
	return 10
}

// distinctOf estimates the number of distinct values an expression takes
// over a node's output.
func (e *estimator) distinctOf(expr sqlparse.Expr, n plan.Node) float64 {
	ref, ok := expr.(*sqlparse.ColumnRef)
	if !ok {
		return 10
	}
	// Walk down through width-preserving nodes to the scan that owns the
	// column.
	switch x := n.(type) {
	case *plan.Scan:
		idx, ok := plan.FindColumn(x.Cols, ref)
		if !ok {
			return 10
		}
		st := e.tableStats(x.Source, x.Table, len(x.Cols))
		d := 10.0
		if idx < len(st.Cols) && st.Cols[idx].Distinct > 0 {
			d = float64(st.Cols[idx].Distinct)
		}
		// Feedback-scaled distinct: when observed cardinality says the
		// table outgrew its catalog stats, per-column distinct counts are
		// stale in the same proportion. Scale growth-only (shrinkage says
		// nothing about the value domain) and cap at the row count.
		if e.fb != nil && st.Rows > 0 {
			staticRows := float64(st.Rows)
			if blended := e.Rows(x); blended > staticRows {
				d *= blended / staticRows
				if d > blended {
					d = blended
				}
			}
		}
		return d
	case *plan.Filter, *plan.Sort, *plan.Limit, *plan.Distinct, *plan.Remote:
		// The column passes through from the one input unchanged.
		d := 10.0
		plan.MapInputs(n, func(in plan.Node) plan.Node {
			d = e.distinctOf(expr, in)
			return in
		})
		return d
	case *plan.Project:
		// Trace the output column back to its source expression.
		if idx, ok := plan.FindColumn(x.Cols, ref); ok {
			return e.distinctOf(x.Exprs[idx], x.Input)
		}
		return 10
	case *plan.Join:
		return e.refDistinct(ref, x.Left, x.Right)
	case *plan.Aggregate:
		// A grouping column keeps its input's values, at most one per
		// group; an aggregate's output has no provenance to trace.
		if idx, ok := plan.FindColumn(x.Columns()[:len(x.GroupBy)], ref); ok {
			return min(e.distinctOf(x.GroupBy[idx], x.Input), e.Rows(x))
		}
		return 10
	case *plan.Union:
		// Column provenance doesn't survive positional union; fall back
		// to the small-domain guess.
		return 10
	default:
		panic(fmt.Sprintf("opt: distinctOf missing case for %T", n))
	}
}

// selectivity estimates the fraction of input rows a predicate keeps.
func (e *estimator) selectivity(cond sqlparse.Expr, input plan.Node) float64 {
	if cond == nil {
		return 1
	}
	sel := 1.0
	var buf [8]sqlparse.Expr
	for _, c := range sqlparse.AppendConjuncts(buf[:0], cond) {
		sel *= e.conjunctSelectivity(c, input)
	}
	if sel < 1e-9 {
		sel = 1e-9
	}
	return sel
}

func (e *estimator) conjunctSelectivity(c sqlparse.Expr, input plan.Node) float64 {
	switch x := c.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case sqlparse.OpEq:
			if ref, ok := x.Left.(*sqlparse.ColumnRef); ok {
				if d := e.distinctOf(ref, input); d > 0 {
					return 1 / d
				}
			}
			if ref, ok := x.Right.(*sqlparse.ColumnRef); ok {
				if d := e.distinctOf(ref, input); d > 0 {
					return 1 / d
				}
			}
			return selEq
		case sqlparse.OpNe:
			return 1 - selEq
		case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			return selRange
		case sqlparse.OpLike:
			return selLike
		case sqlparse.OpOr:
			a := e.conjunctSelectivity(x.Left, input)
			b := e.conjunctSelectivity(x.Right, input)
			s := a + b - a*b
			if s > 1 {
				s = 1
			}
			return s
		case sqlparse.OpAnd:
			return e.conjunctSelectivity(x.Left, input) * e.conjunctSelectivity(x.Right, input)
		default:
			return selDefault
		}
	case *sqlparse.InExpr:
		base := selEq
		if ref, ok := x.Child.(*sqlparse.ColumnRef); ok {
			if d := e.distinctOf(ref, input); d > 0 {
				base = 1 / d
			}
		}
		s := base * float64(len(x.List))
		if s > 1 {
			s = 1
		}
		if x.Not {
			s = 1 - s
		}
		return s
	case *sqlparse.BetweenExpr:
		if x.Not {
			return 1 - selRange
		}
		return selRange
	case *sqlparse.IsNullExpr:
		if x.Not {
			return 0.9
		}
		return 0.1
	case *sqlparse.UnaryExpr:
		if x.Op == "NOT" {
			return 1 - e.conjunctSelectivity(x.Child, input)
		}
		return selDefault
	case *sqlparse.Literal, *sqlparse.Param, *sqlparse.ColumnRef,
		*sqlparse.FuncExpr, *sqlparse.CaseExpr, *sqlparse.CastExpr,
		*sqlparse.ExistsExpr, *sqlparse.InSubquery, *sqlparse.KeyFilterExpr:
		// Non-comparison predicates (bare boolean columns, function
		// results, key-set filters whose hit rate is unknown at plan
		// time): no per-shape model, use the default selectivity.
		return selDefault
	default:
		panic(fmt.Sprintf("opt: conjunctSelectivity missing case for %T", c))
	}
}

// cost computes the PlanCost of a (possibly Remote-annotated) plan. Work
// below a Remote boundary is free for the mediator but its result transits
// the link; everything above costs mediator CPU.
func (e *estimator) cost(n plan.Node) PlanCost {
	var c PlanCost
	var walk func(plan.Node, bool)
	walk = func(x plan.Node, remote bool) {
		if r, ok := x.(*plan.Remote); ok {
			rows := e.Rows(r.Child)
			width := e.RowWidth(r.Child)
			bytes := int64(rows * width)
			c.Shipped += bytes
			if e.env != nil {
				if link := e.env.Link(r.Source); link != nil {
					// NetworkFactor corrects the link model by the
					// source's observed behavior (recent latency, breaker
					// half-open); 1 for static planning.
					c.Network += time.Duration(float64(link.TransferCost(bytes)) * networkFactor(e.env, r.Source))
				}
			}
			walk(r.Child, true)
			return
		}
		if !remote {
			// Mediator processes this node's output rows.
			c.CPURows += int64(e.Rows(x))
		}
		plan.MapInputs(x, func(in plan.Node) plan.Node {
			walk(in, remote)
			return in
		})
		// Bare scans outside a Remote still pull the whole table over
		// the link.
		if s, ok := x.(*plan.Scan); ok && !remote && s.Source != "" {
			rows := e.Rows(s)
			bytes := int64(rows * e.RowWidth(s))
			c.Shipped += bytes
			if e.env != nil {
				if link := e.env.Link(s.Source); link != nil {
					c.Network += time.Duration(float64(link.TransferCost(bytes)) * networkFactor(e.env, s.Source))
				}
			}
		}
	}
	walk(n, false)
	c.Rows = int64(e.Rows(n))
	return c
}

// Total collapses a PlanCost into one duration for comparisons.
func (c PlanCost) Total() time.Duration {
	return c.Network + time.Duration(c.CPURows)*mediatorRowCost
}

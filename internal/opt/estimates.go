package opt

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// StreamEnv is optionally implemented by planning environments whose
// executions feed a feedback store. Stream returns the store's record of a
// shape's stream (feedback.Store.Stream); the optimizer's last pass
// records it on the Remote whose fetch feeds the stream, so executions
// observe it without rendering anything.
type StreamEnv interface {
	Stream(k feedback.Shape) *plan.Stream
}

// annotateEstimates is the optimizer's last pass, on every path that
// returns a plan to execute. It records on every node the row estimate
// est gives it, rounded as Estimator.Rows rounds it, on every Remote the
// feedback stream its child's fetch feeds, and on every Join whose
// semi-join hint applies a plan.Reduction for its reduced fetch. An execution
// then runs with the numbers its plan was costed from — its operator
// records, re-plan tripwire and feedback observations read fields — and
// estimates and renders nothing. Without a StreamEnv a Remote records no
// stream.
//
// Estimates never depend on a bound constant: only WHERE and ON literals
// become parameters, no selectivity reads a constant's value, an
// IN-list's length is fixed by the template and signatures mask
// constants. So a cached template's numbers hold for every binding of it.
//
// Like annotateParallelism the pass annotates by copy: it writes only
// into a node plan.MapInputs has just copied for it, and copies from a
// any other node whose annotation changes, so over a plan that carries
// its annotations already it returns its input and allocates nothing.
// Every annotation is taken over the node as given, before its inputs
// are annotated: none depends on another. From here on est memoizes
// every node's estimate, so the pass estimates each node once.
func annotateEstimates(a *sqlparse.Arena, n plan.Node, est *estimator) plan.Node {
	est.memoAll = true
	streams, _ := est.env.(StreamEnv)
	var annotate func(plan.Node) plan.Node
	annotate = func(n plan.Node) plan.Node {
		rows := est.rounded(n)
		var stream *plan.Stream
		if r, ok := n.(*plan.Remote); ok {
			stream = est.stream(streams, r.Child)
		}
		var red plan.Reduction
		if j, ok := n.(*plan.Join); ok {
			red = est.reduction(streams, j)
		}
		out := plan.MapInputs(a, n, annotate)
		owned := out != n
		switch x := out.(type) {
		case *plan.Remote:
			if x.Stream != stream {
				x = own(a, x, owned)
				x.Stream = stream
				out, owned = x, true
			}
		case *plan.Join:
			if x.Reduce != red {
				x = own(a, x, owned)
				x.Reduce = red
				out, owned = x, true
			}
		case *plan.Scan, *plan.Filter, *plan.Project, *plan.Aggregate,
			*plan.Sort, *plan.Limit, *plan.Distinct, *plan.Union:
			// Nothing but the estimate.
		default:
			panic(fmt.Sprintf("opt: annotateEstimates missing case for %T", out))
		}
		return withRows(a, out, owned, rows)
	}
	return annotate(n)
}

// stream is the store's record of n's feedback stream; nil without a
// store, or when n has no signature.
func (e *estimator) stream(streams StreamEnv, n plan.Node) *plan.Stream {
	if streams == nil {
		return nil
	}
	shape, ok := e.signature(n)
	if !ok {
		return nil
	}
	return streams.Stream(shape)
}

// falseCond is the filter of a reduced fetch whose probe side has no keys.
var falseCond = &sqlparse.Literal{Value: datum.NewBool(false)}

// reduction is what j's reduced fetch records, the zero Reduction when
// j's semi-join hint does not apply: the streams of its forms, rendered
// over stand-ins for the filters the executor builds, and the terms of
// the estimate the estimator gives such a filter (see
// conjunctSelectivity's InExpr, KeyFilterExpr and Literal cases).
func (e *estimator) reduction(streams StreamEnv, j *plan.Join) plan.Reduction {
	if j.SemiJoin == plan.SemiJoinNone || j.Cond == nil {
		return plan.Reduction{}
	}
	var leftBuf, rightBuf [4]sqlparse.Expr
	lk, rk, _ := plan.AppendEquiKeys(leftBuf[:0], rightBuf[:0], j.Cond, j.Left.Columns(), j.Right.Columns())
	r, pair, ok := j.Reduced(lk, rk)
	if !ok {
		return plan.Reduction{}
	}
	if j.SemiJoin == plan.SemiJoinReduceLeft {
		rk = lk
	}
	ref := rk[pair].(*sqlparse.ColumnRef)
	rows := e.Rows(r.Child)
	keySel := selEq
	if d := e.distinctOf(ref, r.Child); d > 0 {
		keySel = 1 / d
	}
	e.keyedIn = sqlparse.InExpr{Child: ref}
	e.keyed = plan.Filter{Input: r.Child, Cond: &e.keyedIn}
	e.empty = plan.Filter{Input: r.Child, Cond: falseCond}
	return plan.Reduction{
		Keyed:   e.stream(streams, &e.keyed),
		Empty:   e.stream(streams, &e.empty),
		Rows:    rows,
		KeySel:  keySel,
		Unkeyed: rows * selDefault,
	}
}

// withRows returns n carrying the row estimate rows: n itself when it
// already does, or when owned with the estimate set in place, else a copy
// from a.
func withRows(a *sqlparse.Arena, n plan.Node, owned bool, rows int64) plan.Node {
	if n.EstRows() == rows {
		return n
	}
	switch x := n.(type) {
	case *plan.Scan:
		return setRows(a, x, owned, rows)
	case *plan.Filter:
		return setRows(a, x, owned, rows)
	case *plan.Project:
		return setRows(a, x, owned, rows)
	case *plan.Join:
		return setRows(a, x, owned, rows)
	case *plan.Aggregate:
		return setRows(a, x, owned, rows)
	case *plan.Sort:
		return setRows(a, x, owned, rows)
	case *plan.Limit:
		return setRows(a, x, owned, rows)
	case *plan.Distinct:
		return setRows(a, x, owned, rows)
	case *plan.Union:
		return setRows(a, x, owned, rows)
	case *plan.Remote:
		return setRows(a, x, owned, rows)
	default:
		panic(fmt.Sprintf("opt: withRows missing case for %T", n))
	}
}

// setRows is withRows for one node type.
func setRows[T any, P interface {
	*T
	SetEstRows(int64)
}](a *sqlparse.Arena, x P, owned bool, rows int64) P {
	x = P(own(a, (*T)(x), owned))
	x.SetEstRows(rows)
	return x
}

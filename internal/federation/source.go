// Package federation defines the data-source abstraction the mediator
// integrates over: the Source interface, the capability model that tells
// the optimizer how much work each source can absorb (§1: "dealt with the
// limitations and capabilities of each source"), and wrapper
// implementations for relational and delimited-file sources.
package federation

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Caps advertises which plan operators a source can execute locally. The
// optimizer clamps pushdown to this set; everything else runs at the
// mediator after shipping rows.
type Caps struct {
	PushFilter    bool
	PushProject   bool
	PushJoin      bool
	PushAggregate bool
	PushSort      bool
	PushLimit     bool
}

// FullSQL is the capability set of a mature relational source.
func FullSQL() Caps {
	return Caps{PushFilter: true, PushProject: true, PushJoin: true,
		PushAggregate: true, PushSort: true, PushLimit: true}
}

// FilterOnly is the capability set of a simple scan+filter wrapper (a
// delimited-file source).
func FilterOnly() Caps { return Caps{PushFilter: true, PushProject: true} }

// ScanOnly is the capability set of a source that can only ship whole
// tables (a key-value store accessed without its key).
func ScanOnly() Caps { return Caps{} }

// Allows reports whether the capability set permits executing the given
// plan node remotely.
func (c Caps) Allows(n plan.Node) bool {
	switch n.(type) {
	case *plan.Scan:
		return true
	case *plan.Filter:
		return c.PushFilter
	case *plan.Project:
		return c.PushProject
	case *plan.Join:
		return c.PushJoin
	case *plan.Aggregate:
		return c.PushAggregate
	case *plan.Distinct:
		return c.PushAggregate
	case *plan.Sort:
		return c.PushSort
	case *plan.Limit:
		return c.PushLimit
	default:
		return false
	}
}

// Source is one wrapped data source.
type Source interface {
	// Name is the unique registration name.
	Name() string
	// Catalog describes the source's exported tables and statistics.
	Catalog() *catalog.SourceCatalog
	// Capabilities reports what the source can execute locally.
	Capabilities() Caps
	// Link is the simulated network path to the source.
	Link() *netsim.Link
	// ContextSource is how the source runs work: ExecuteCtx.
	ContextSource
}

// ContextSource is the execution half of Source.
type ContextSource interface {
	// ExecuteCtx runs a pushed-down plan subtree (all of whose scans
	// reference this source) and returns the result rows. The
	// implementation charges the link for shipping the result back; a
	// query deadline or cancellation aborts the fetch before (or instead
	// of) charging it. A subtree is a fragment of the plan template the
	// query runs: the values of any parameter it holds ride the query
	// scratch on ctx (exec.Scratch.Params).
	ExecuteCtx(ctx context.Context, subtree plan.Node) ([]datum.Row, error)
}

// ExecuteWithContext runs a pushed-down subtree at the source unless the
// context is already done.
func ExecuteWithContext(ctx context.Context, src Source, subtree plan.Node) ([]datum.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return src.ExecuteCtx(ctx, subtree)
}

// Updatable is implemented by sources that accept writes (used by the EAI
// layer and the examples; EII itself is read-only, which is §4's point).
type Updatable interface {
	Insert(ctx context.Context, table string, row datum.Row) error
	Update(ctx context.Context, table string, pred func(datum.Row) bool, fn func(datum.Row) datum.Row) (int, error)
	Delete(ctx context.Context, table string, pred func(datum.Row) bool) (int, error)
}

// Notifying is implemented by sources that can push change notifications
// for their tables — §7's automatically generated Notify methods. The
// callback runs synchronously on the mutating goroutine.
type Notifying interface {
	SubscribeTable(table string, fn func(storage.Change)) (cancel func(), err error)
}

// requestOverheadBytes is the cost of shipping the component query itself:
// the SQL/plan envelope, excluding bulky key-shipping payloads, which
// RequestSize accounts separately.
const requestOverheadBytes = 256

// RequestSize reports the bytes it costs to ship the component query for
// subtree across a link: a fixed envelope plus any key-shipping payload the
// fragment carries — semi-join IN-list literals and bloom key-set filters.
// Ordinary predicate literals ride inside the envelope; only the payloads
// that grow with probe-side cardinality are charged per byte, so the wire
// accounting exposes the IN-list vs bloom crossover honestly.
func RequestSize(subtree plan.Node) int { return RequestSizeWith(subtree, nil) }

// RequestSizeWith is RequestSize of a fragment of a plan template run with
// the values params: an IN-list parameter weighs what its value does as a
// literal.
func RequestSizeWith(subtree plan.Node, params []datum.Datum) int {
	return requestOverheadBytes + payloadBytes(subtree, params)
}

// payloadBytes sums key-shipping payload bytes over the predicates of a
// fragment's filters and joins. It allocates nothing (plan.MapInputs does
// not when its callback changes nothing).
func payloadBytes(n plan.Node, params []datum.Datum) int {
	total := 0
	if f, ok := n.(*plan.Filter); ok {
		total = exprPayload(f.Cond, params)
	} else if j, ok := n.(*plan.Join); ok {
		total = exprPayload(j.Cond, params)
	}
	plan.MapInputs(nil, n, func(in plan.Node) plan.Node {
		total += payloadBytes(in, params)
		return in
	})
	return total
}

// exprPayload counts the bytes of cardinality-dependent predicate payloads:
// IN-list literal values (a parameter's, from params, as a literal's) and
// serialized key-set filters. Single literals elsewhere are part of the
// fixed request size.
func exprPayload(e sqlparse.Expr, params []datum.Datum) int {
	total := 0
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if in, ok := x.(*sqlparse.InExpr); ok {
			for _, item := range in.List {
				if v, ok := keyValue(item, params); ok {
					total += v.WireSize()
				}
			}
		} else if kf, ok := x.(*sqlparse.KeyFilterExpr); ok && kf.Set != nil {
			total += kf.Set.WireSize()
		}
	})
	return total
}

// payloadParams appends the index k of every parameter $k an IN-list of
// n's filters and joins holds, in payloadBytes' order.
func payloadParams(dst []int, n plan.Node) []int {
	var cond sqlparse.Expr
	if f, ok := n.(*plan.Filter); ok {
		cond = f.Cond
	} else if j, ok := n.(*plan.Join); ok {
		cond = j.Cond
	}
	sqlparse.WalkExprs(cond, func(x sqlparse.Expr) {
		if in, ok := x.(*sqlparse.InExpr); ok {
			for _, item := range in.List {
				if p, ok := item.(*sqlparse.Param); ok {
					dst = append(dst, p.Index)
				}
			}
		}
	})
	plan.MapInputs(nil, n, func(in plan.Node) plan.Node {
		dst = payloadParams(dst, in)
		return in
	})
	return dst
}

// keyValue returns the value of e when it is a literal, or a parameter
// params binds.
func keyValue(e sqlparse.Expr, params []datum.Datum) (datum.Datum, bool) {
	if lit, ok := e.(*sqlparse.Literal); ok {
		return lit.Value, true
	}
	if p, ok := e.(*sqlparse.Param); ok && p.Index >= 1 && p.Index <= len(params) {
		return params[p.Index-1], true
	}
	return datum.Datum{}, false
}

// shipResult charges the link for one round trip carrying a request of req
// bytes (see RequestSize) and the result rows, then returns the rows
// unchanged. A failed round trip (injected fault, outage) loses the
// payload: the caller gets the link's error and no rows. The context
// aborts a blocking (RealSleep) transfer early on cancellation.
func shipResult(ctx context.Context, link *netsim.Link, req int, rows []datum.Row) ([]datum.Row, error) {
	bytes := req
	for _, r := range rows {
		bytes += datum.RowWireSize(r)
	}
	if _, err := link.Transfer(ctx, bytes); err != nil {
		return nil, err
	}
	return rows, nil
}

// Deparse renders a pushed-down subtree as the SQL text a real wrapper
// would send to its backend; used for logging and EXPLAIN output.
func Deparse(n plan.Node) (string, error) {
	sel, err := deparseNode(n)
	if err != nil {
		return "", err
	}
	return sel.SQL(), nil
}

func deparseNode(n plan.Node) (*sqlparse.Select, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return &sqlparse.Select{
			Items: []sqlparse.SelectItem{{Star: true}},
			From: []sqlparse.TableRef{&sqlparse.BaseTable{
				Source: x.Source, Name: x.Table, Alias: x.Alias,
			}},
		}, nil
	case *plan.Filter:
		sub, err := deparseNode(x.Input)
		if err != nil {
			return nil, err
		}
		if err := flattens(n, sub, true); err != nil {
			return nil, err
		}
		if sub.Where == nil {
			sub.Where = x.Cond
		} else {
			sub.Where = &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: sub.Where, Right: x.Cond}
		}
		return sub, nil
	case *plan.Project:
		sub, err := deparseNode(x.Input)
		if err != nil {
			return nil, err
		}
		if err := flattens(n, sub, false); err != nil {
			return nil, err
		}
		items := make([]sqlparse.SelectItem, len(x.Exprs))
		for i, e := range x.Exprs {
			items[i] = sqlparse.SelectItem{Expr: e, Alias: x.Cols[i].Name}
		}
		sub.Items = items
		return sub, nil
	case *plan.Join:
		l, err := deparseNode(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := deparseNode(x.Right)
		if err != nil {
			return nil, err
		}
		if len(l.From) == 0 || len(r.From) == 0 {
			return nil, fmt.Errorf("federation: cannot deparse join over FROM-less input")
		}
		if err := flattens(n, l, true); err != nil {
			return nil, err
		}
		if err := flattens(n, r, true); err != nil {
			return nil, err
		}
		if err := keepsNames(x.Left, l); err != nil {
			return nil, err
		}
		if err := keepsNames(x.Right, r); err != nil {
			return nil, err
		}
		cond := x.Cond
		if cond == nil {
			cond = &sqlparse.Literal{Value: datum.NewBool(true)}
		}
		rightWhere := r.Where
		if x.Type != sqlparse.JoinInner && rightWhere != nil {
			// For outer joins a right-side predicate must stay in the ON
			// clause: hoisting it into the outer WHERE would discard rows
			// with a NULL-padded right side, silently turning the LEFT
			// JOIN into an inner join on pushdown.
			cond = mergeWhere(cond, rightWhere)
			rightWhere = nil
		}
		join := &sqlparse.Join{Type: x.Type, Left: l.From[0], Right: r.From[0], On: cond}
		out := &sqlparse.Select{
			Items: []sqlparse.SelectItem{{Star: true}},
			From:  []sqlparse.TableRef{join},
		}
		out.Where = mergeWhere(l.Where, rightWhere)
		return out, nil
	case *plan.Aggregate:
		sub, err := deparseNode(x.Input)
		if err != nil {
			return nil, err
		}
		if err := flattens(n, sub, true); err != nil {
			return nil, err
		}
		var items []sqlparse.SelectItem
		for _, g := range x.GroupBy {
			items = append(items, sqlparse.SelectItem{Expr: g})
		}
		for _, sp := range x.Aggs {
			f := &sqlparse.FuncExpr{Name: sp.Func, Distinct: sp.Distinct, Star: sp.Star}
			if sp.Arg != nil {
				f.Args = []sqlparse.Expr{sp.Arg}
			}
			items = append(items, sqlparse.SelectItem{Expr: f})
		}
		sub.Items = items
		sub.GroupBy = x.GroupBy
		return sub, nil
	case *plan.Sort:
		sub, err := deparseNode(x.Input)
		if err != nil {
			return nil, err
		}
		for _, k := range x.Keys {
			sub.OrderBy = append(sub.OrderBy, sqlparse.OrderItem{Expr: k.Expr, Desc: k.Desc})
		}
		return sub, nil
	case *plan.Limit:
		sub, err := deparseNode(x.Input)
		if err != nil {
			return nil, err
		}
		if x.Count >= 0 {
			sub.Limit = &sqlparse.Literal{Value: datum.NewInt(x.Count)}
		}
		if x.Offset > 0 {
			sub.Offset = &sqlparse.Literal{Value: datum.NewInt(x.Offset)}
		}
		return sub, nil
	case *plan.Distinct:
		sub, err := deparseNode(x.Input)
		if err != nil {
			return nil, err
		}
		sub.Distinct = true
		return sub, nil
	default:
		return nil, fmt.Errorf("federation: cannot deparse %T", n)
	}
}

// flattens fails unless n folds into sub, the SELECT an input of n
// deparses to. One SELECT filters and joins before it groups, aggregates
// and removes duplicates, and applies LIMIT and OFFSET last, so n over an
// aggregate or a DISTINCT, or over a limit unless n is a projection,
// needs a derived table, which Deparse does not render.
func flattens(n plan.Node, sub *sqlparse.Select, limits bool) error {
	late := sub.Distinct || sub.GroupBy != nil || limits && (sub.Limit != nil || sub.Offset != nil)
	for _, it := range sub.Items {
		late = late || it.Expr != nil && sqlparse.ContainsAggregate(it.Expr)
	}
	if late {
		return fmt.Errorf("federation: cannot deparse %T over a grouped, distinct or limited input", n)
	}
	return nil
}

// keepsNames fails unless every column of in, a join input that deparses
// to sub, is a column of sub's FROM under its own binding and name. The
// join keeps only its inputs' FROM and WHERE, and its condition and the
// nodes above it name in's columns: a projection that renames a column,
// moves it under another binding (a view's) or computes an expression
// needs a derived table, which Deparse does not render.
func keepsNames(in plan.Node, sub *sqlparse.Select) error {
	cols := in.Columns()
	for i, it := range sub.Items {
		if it.Star {
			continue
		}
		ref, ok := it.Expr.(*sqlparse.ColumnRef)
		if !ok || i >= len(cols) || !strings.EqualFold(ref.Column, cols[i].Name) || !strings.EqualFold(ref.Table, cols[i].Table) {
			return fmt.Errorf("federation: cannot deparse a join over a renaming projection")
		}
	}
	return nil
}

func mergeWhere(a, b sqlparse.Expr) sqlparse.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: a, Right: b}
	}
}

// validateSubtree checks that every scan in the subtree references the
// given source and that every node is within caps.
func validateSubtree(source string, caps Caps, subtree plan.Node) error {
	validations.Add(1)
	var err error
	plan.Walk(subtree, func(n plan.Node) {
		if err != nil {
			return
		}
		if s, ok := n.(*plan.Scan); ok && s.Source != source {
			err = fmt.Errorf("federation: subtree for %s scans %s.%s", source, s.Source, s.Table)
			return
		}
		if !caps.Allows(n) {
			err = fmt.Errorf("federation: source %s cannot execute %s", source, n.Describe())
		}
	})
	return err
}

// Package federation defines the data-source abstraction the mediator
// integrates over: the Source interface, the capability model that tells
// the optimizer how much work each source can absorb (§1: "dealt with the
// limitations and capabilities of each source"), and wrapper
// implementations for relational and delimited-file sources.
package federation

import (
	"context"
	"fmt"

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
	// of) charging it.
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
	Insert(table string, row datum.Row) error
	Update(table string, pred func(datum.Row) bool, fn func(datum.Row) datum.Row) (int, error)
	Delete(table string, pred func(datum.Row) bool) (int, error)
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
func RequestSize(subtree plan.Node) int {
	return requestOverheadBytes + payloadBytes(subtree)
}

// payloadBytes sums key-shipping payload bytes over the predicates of a
// fragment's filters and joins. It runs on the E17 warm path for every
// remote fetch, and allocates nothing (plan.MapInputs does not when its
// callback changes nothing).
func payloadBytes(n plan.Node) int {
	total := 0
	if f, ok := n.(*plan.Filter); ok {
		total = exprPayload(f.Cond)
	} else if j, ok := n.(*plan.Join); ok {
		total = exprPayload(j.Cond)
	}
	plan.MapInputs(n, func(in plan.Node) plan.Node {
		total += payloadBytes(in)
		return in
	})
	return total
}

// exprPayload counts the bytes of cardinality-dependent predicate payloads:
// IN-list literal values and serialized key-set filters.
func exprPayload(e sqlparse.Expr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case *sqlparse.InExpr:
		total := exprPayload(x.Child)
		for _, item := range x.List {
			if lit, ok := item.(*sqlparse.Literal); ok {
				total += lit.Value.WireSize()
			} else {
				total += exprPayload(item)
			}
		}
		return total
	case *sqlparse.KeyFilterExpr:
		total := exprPayload(x.Child)
		if x.Set != nil {
			total += x.Set.WireSize()
		}
		return total
	case *sqlparse.BinaryExpr:
		return exprPayload(x.Left) + exprPayload(x.Right)
	case *sqlparse.UnaryExpr:
		return exprPayload(x.Child)
	case *sqlparse.IsNullExpr:
		return exprPayload(x.Child)
	case *sqlparse.BetweenExpr:
		return exprPayload(x.Child) + exprPayload(x.Lo) + exprPayload(x.Hi)
	case *sqlparse.FuncExpr:
		total := 0
		for _, a := range x.Args {
			total += exprPayload(a)
		}
		return total
	case *sqlparse.CaseExpr:
		total := exprPayload(x.Else)
		for _, w := range x.Whens {
			total += exprPayload(w.Cond) + exprPayload(w.Result)
		}
		return total
	case *sqlparse.CastExpr:
		return exprPayload(x.Child)
	case *sqlparse.Literal, *sqlparse.Param, *sqlparse.ColumnRef:
		// Leaves with no cardinality-dependent payload (single literals
		// are part of the fixed request size, not a key-set payload).
		return 0
	case *sqlparse.ExistsExpr, *sqlparse.InSubquery:
		// Subqueries are pre-evaluated into literals/IN-lists by the
		// engine's rewriteExists before any fragment ships, so they
		// never reach a link; nothing to count here.
		return 0
	default:
		panic(fmt.Sprintf("federation: exprPayload missing case for %T", e))
	}
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
	if _, err := link.TransferCtx(ctx, bytes); err != nil {
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

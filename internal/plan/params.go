package plan

import (
	"fmt"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/sqlparse"
)

// This file implements parameter binding over compiled plans. A plan built
// from a statement with placeholders is a template: it carries
// *sqlparse.Param leaves where constants will go. BindParams instantiates
// the template with one execution's values, producing a plan the executor
// (and the pushdown deparser) sees as fully constant. The template is
// never mutated, so a cached plan can be bound concurrently by any number
// of executions.

// BindParams returns a copy of the plan with every placeholder replaced by
// its value (params[i] binds $i+1). Subtrees without placeholders are
// shared with the input plan, so binding a mostly-constant plan is cheap.
// Binding fails with a *ParamError when the plan references a parameter
// index beyond len(params); surplus values are ignored.
func BindParams(n Node, params []datum.Datum) (Node, error) {
	return BindParamsIn(nil, n, params)
}

// BindParamsIn is BindParams with everything it rebuilds allocated from a
// (heap when a is nil): the rewritten expression subtrees, the lists that
// hold them and the copied plan nodes, all through Map. They die with the
// query's arena; the returned plan must not outlive the arena; the engine
// reports the retained template, never the bound instance, in
// Result.Plan.
func BindParamsIn(a *sqlparse.Arena, n Node, params []datum.Datum) (Node, error) {
	b := binder{arena: a, params: params}
	out := b.node(n)
	if b.copied > 0 {
		nodesCopied.Add(b.copied)
	}
	if b.err != nil {
		return nil, b.err
	}
	return out, nil
}

// ParamError is a placeholder with no value bound to it: $Index, with
// Bound values given.
type ParamError struct{ Index, Bound int }

func (e *ParamError) Error() string {
	return fmt.Sprintf("plan: statement requires parameter $%d but %d values are bound", e.Index, e.Bound)
}

type binder struct {
	arena  *sqlparse.Arena
	params []datum.Datum
	err    error // the first out-of-range parameter, a *ParamError
	copied int64 // plan nodes copied
}

// nodesCopied counts, process-wide, the plan nodes binding has copied.
var nodesCopied atomic.Int64

// node binds n's inputs and expressions. Map is copy-on-change and keeps
// a copy's derived columns, so a subtree without placeholders is shared
// with the template and a bound Aggregate keeps its unbound column names,
// which references above it were resolved against.
func (b *binder) node(n Node) Node {
	out := Map(b.arena, n, b.node, b.expr)
	if out != n {
		b.copied++
	}
	return out
}

// expr binds e's placeholders; RewriteIn hands an expression without one
// back as itself.
func (b *binder) expr(e sqlparse.Expr) sqlparse.Expr {
	out, _ := sqlparse.RewriteIn(b.arena, e, b.literal) // literal never fails
	return out
}

// literal replaces a placeholder with its value. An index out of range is
// recorded in b.err, not returned through RewriteIn, and the placeholder
// kept; BindParamsIn then discards the whole plan.
func (b *binder) literal(x sqlparse.Expr) (sqlparse.Expr, error) {
	p, ok := x.(*sqlparse.Param)
	if !ok {
		return x, nil
	}
	if p.Index < 1 || p.Index > len(b.params) {
		if b.err == nil {
			b.err = &ParamError{Index: p.Index, Bound: len(b.params)}
		}
		return x, nil
	}
	return sqlparse.New(b.arena, sqlparse.Literal{Value: b.params[p.Index-1]}), nil
}

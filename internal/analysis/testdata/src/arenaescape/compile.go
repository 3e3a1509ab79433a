package fixture

import (
	"repro/internal/catalog"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// entry stands in for the engine's plan-cache entry: heap state that
// outlives the query whose arena compiled its plan.
type entry struct {
	tmpl plan.Node
	cost opt.PlanCost
}

// hitOptimizedPlanIntoCacheEntry: a plan built and optimized in the query
// arena kept in a cache entry as it is.
func hitOptimizedPlanIntoCacheEntry(a *sqlparse.Arena, cat catalog.Reader, sel *sqlparse.Select, env opt.Env) (*entry, error) {
	logical, err := plan.BuildIn(a, cat, sel)
	if err != nil {
		return nil, err
	}
	optimized, cost := opt.OptimizeCosted(a, logical, env, opt.Options{})
	cp := &entry{cost: cost}
	cp.tmpl = optimized // want "storing an arena-backed value into struct field \"tmpl\""
	return cp, nil
}

func (h *holder) hitBuiltPlanIntoHeapField(a *sqlparse.Arena, cat catalog.Reader, sel *sqlparse.Select) {
	h.plan, _ = plan.BuildIn(a, cat, sel) // want "storing an arena-backed value into struct field \"plan\""
}

// hitCopiedNodeIntoHeapField: a node a pass copied from the arena.
func (h *holder) hitCopiedNodeIntoHeapField(a *sqlparse.Arena, n plan.Node, fn func(plan.Node) plan.Node) {
	h.plan = plan.MapInputs(a, n, fn) // want "storing an arena-backed value into struct field \"plan\""
}

// hitMapIntoHeapField: a node whose expressions a pass rewrote in the
// arena.
func (h *holder) hitMapIntoHeapField(a *sqlparse.Arena, n plan.Node, fn func(plan.Node) plan.Node, rewrite func(sqlparse.Expr) sqlparse.Expr) {
	h.plan = plan.Map(a, n, fn, rewrite) // want "storing an arena-backed value into struct field \"plan\""
}

// missRetainedPlanIntoCacheEntry: the entry keeps plan.Retain's compact
// heap copy, and the arena plan dies with the query.
func missRetainedPlanIntoCacheEntry(a *sqlparse.Arena, cat catalog.Reader, sel *sqlparse.Select, env opt.Env) (*entry, error) {
	logical, err := plan.BuildIn(a, cat, sel)
	if err != nil {
		return nil, err
	}
	optimized, cost := opt.OptimizeCosted(a, logical, env, opt.Options{})
	cp := &entry{cost: cost}
	cp.tmpl = plan.Retain(a, optimized)
	return cp, nil
}

// missHeapCompile: a compile handed a literal nil arena allocates on the
// heap.
func (h *holder) missHeapCompile(cat catalog.Reader, sel *sqlparse.Select, env opt.Env, fn func(plan.Node) plan.Node) {
	h.plan, _ = plan.BuildIn(nil, cat, sel)
	h.plan, _ = opt.OptimizeCosted(nil, h.plan, env, opt.Options{})
	h.plan = plan.MapInputs(nil, h.plan, fn)
}

// missHeapMap: Map handed a literal nil arena copies onto the heap.
func (h *holder) missHeapMap(n plan.Node, fn func(plan.Node) plan.Node, rewrite func(sqlparse.Expr) sqlparse.Expr) {
	h.plan = plan.Map(nil, n, fn, rewrite)
}

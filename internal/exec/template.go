package exec

import (
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// This file holds what running a plan template needs: the per-Remote
// slots a cached plan keeps its sources' prepared state in (Fragments),
// and a fragment's expressions compiled once with a slot per parameter
// (Prepared). The query's values ride its Scratch
// (SetTemplate): the mediator's operators compile each $k to its value,
// and a source binds its prepared fragment to them.

// Fragments holds the prepared-fragment slots of one cached plan
// template: one per Remote, found by the Remote's child. A source keeps
// there whatever it prepared for that fragment, so the state lives, and is
// retired, with the plan.
type Fragments struct {
	slots []FragmentSlot
	// mediator is the template's own nodes prepared (see PrepareShared).
	mediator *Prepared
}

// FragmentSlot is one Remote's slot. Its state serves one fetch at a
// time: Take hands it to one fetch, and Put gives it back.
type FragmentSlot struct {
	child plan.Node
	busy  atomic.Bool
	state any
}

// NewFragments returns empty slots for every Remote of tmpl, beside the
// mediator's nodes of tmpl prepared.
func NewFragments(tmpl plan.Node) *Fragments {
	n := 0
	plan.Walk(tmpl, func(x plan.Node) {
		if _, ok := x.(*plan.Remote); ok {
			n++
		}
	})
	f := &Fragments{slots: make([]FragmentSlot, n), mediator: PrepareShared(tmpl)}
	n = 0
	plan.Walk(tmpl, func(x plan.Node) {
		if r, ok := x.(*plan.Remote); ok {
			f.slots[n].child = r.Child
			n++
		}
	})
	return f
}

// Mediator returns the template's mediator nodes prepared, for the
// Options of every execution of it; nil for nil f.
func (f *Fragments) Mediator() *Prepared {
	if f == nil {
		return nil
	}
	return f.mediator
}

// slot returns the slot of the Remote whose child is child, nil for none
// (and for nil f).
func (f *Fragments) slot(child plan.Node) *FragmentSlot {
	if f == nil {
		return nil
	}
	for i := range f.slots {
		if f.slots[i].child == child {
			return &f.slots[i]
		}
	}
	return nil
}

// Take claims the slot for one fetch and returns its state (nil before
// the first Put). ok is false while another fetch holds it.
func (s *FragmentSlot) Take() (state any, ok bool) {
	if !s.busy.CompareAndSwap(false, true) {
		return nil, false
	}
	return s.state, true
}

// Put stores state in the slot and releases it; only the fetch that took
// it may call Put.
func (s *FragmentSlot) Put(state any) {
	s.state = state
	s.busy.Store(false)
}

// Prepared is a plan's expressions compiled once, onto the heap: a
// build with Options.Prepared set takes each prepared node's expressions
// from here instead of compiling them, and a join's split of its
// condition into equi-keys too. Prepare compiles a source fragment's,
// with a slot for every parameter they hold, which Bind writes one
// execution's values into: such a Prepared serves one execution at a time
// and, unbound, holds no value of any. PrepareShared compiles a template's
// mediator nodes that hold no parameter: that Prepared has no slot, never
// changes, and serves any number of executions at once.
type Prepared struct {
	nodes []preparedNode
	joins []preparedJoin
	slots []paramSlot
}

type preparedNode struct {
	n     plan.Node
	exprs []Expr
}

// preparedJoin is a join's condition split as plan.AppendEquiKeys splits
// it and compiled as assembleJoin compiles it: the equi-keys of each side,
// and the residual (the whole condition when there is no equi-key).
type preparedJoin struct {
	n           *plan.Join
	lk, rk      []sqlparse.Expr
	residual    sqlparse.Expr
	left, right []Expr
	cond        *Expr
}

// paramSlot is one parameter's node in a prepared block, $k: a literal
// node Bind writes the value into, or, where like is set, a LIKE whose
// pattern it is, which Bind gives the pattern's regexp.
type paramSlot struct {
	e    *Expr
	k    int
	like bool
}

// Prepare compiles the expressions of every node of the fragment root.
// It fails where compiling the same nodes with their values would.
func Prepare(root plan.Node) (*Prepared, error) {
	p := &Prepared{}
	if err := p.add(root, false); err != nil {
		return nil, err
	}
	return p, nil
}

// PrepareShared compiles the expressions of the nodes of the template
// tmpl that hold no parameter, short of its Remotes' fragments; nil when
// one does not compile, which each build then reports.
func PrepareShared(tmpl plan.Node) *Prepared {
	p := &Prepared{}
	if p.add(tmpl, true) != nil {
		return nil
	}
	return p
}

// add prepares n and its inputs; shared skips Remotes' fragments and the
// nodes whose expressions hold a parameter.
func (p *Prepared) add(n plan.Node, shared bool) error {
	if _, ok := n.(*plan.Remote); ok && shared {
		return nil
	}
	mode := paramMode{slots: &p.slots}
	var buf [8]sqlparse.Expr
	if j, ok := n.(*plan.Join); ok && j.Cond != nil {
		if !shared || !hasParam(j.Cond) {
			if err := p.addJoin(j, mode); err != nil {
				return err
			}
		}
	} else if exprs, cols, ok := nodeExprs(buf[:0], n); ok && !(shared && anyParam(exprs)) {
		fns, err := compileBlock(nil, exprs, cols, mode)
		if err != nil {
			return err
		}
		p.nodes = append(p.nodes, preparedNode{n: n, exprs: fns})
	}
	var err error
	plan.MapInputs(nil, n, func(in plan.Node) plan.Node {
		if err == nil {
			err = p.add(in, shared)
		}
		return in
	})
	return err
}

func (p *Prepared) addJoin(x *plan.Join, mode paramMode) error {
	pj := preparedJoin{n: x}
	pj.lk, pj.rk, pj.residual = plan.AppendEquiKeys(nil, nil, x.Cond, x.Left.Columns(), x.Right.Columns())
	cond := x.Cond
	if len(pj.lk) > 0 {
		var err error
		if pj.left, err = compileBlock(nil, pj.lk, x.Left.Columns(), mode); err != nil {
			return err
		}
		if pj.right, err = compileBlock(nil, pj.rk, x.Right.Columns(), mode); err != nil {
			return err
		}
		cond = pj.residual
	}
	if cond != nil {
		fns, err := compileBlock(nil, []sqlparse.Expr{cond}, x.Columns(), mode)
		if err != nil {
			return err
		}
		pj.cond = &fns[0]
	}
	p.joins = append(p.joins, pj)
	return nil
}

// hasParam reports whether e holds a parameter.
func hasParam(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if _, ok := x.(*sqlparse.Param); ok {
			found = true
		}
	})
	return found
}

func anyParam(exprs []sqlparse.Expr) bool {
	for _, e := range exprs {
		if hasParam(e) {
			return true
		}
	}
	return false
}

// Bind writes vals ($k is vals[k-1]) into the parameter slots. A
// parameter past len(vals) fails with a *plan.ParamError, and a LIKE
// pattern that does not compile with its error.
func (p *Prepared) Bind(vals []datum.Datum) error {
	for _, s := range p.slots {
		if s.k < 1 || s.k > len(vals) {
			return &plan.ParamError{Index: s.k, Bound: len(vals)}
		}
		v := vals[s.k-1]
		if !s.like {
			s.e.val = v
			continue
		}
		if v.IsNull() || v.Kind() != datum.KindString {
			continue // evalLike reports it per row, as a bound LIKE would
		}
		re, err := likeCache(v.Str())
		if err != nil {
			return err
		}
		s.e.eval, s.e.re = (*Expr).evalLikeConst, re
	}
	return nil
}

// Unbind clears the values Bind wrote.
func (p *Prepared) Unbind() {
	for _, s := range p.slots {
		if s.like {
			s.e.eval, s.e.re = (*Expr).evalLike, nil
		} else {
			s.e.val = datum.Datum{}
		}
	}
}

// join returns x's prepared condition, nil for a join not prepared (and
// for nil p).
func (p *Prepared) join(x *plan.Join) *preparedJoin {
	if p == nil {
		return nil
	}
	for i := range p.joins {
		if p.joins[i].n == x {
			return &p.joins[i]
		}
	}
	return nil
}

// lookup returns n's prepared expressions; ok is false for a node not
// prepared (and for nil p).
func (p *Prepared) lookup(n plan.Node) ([]Expr, bool) {
	if p == nil {
		return nil, false
	}
	for i := range p.nodes {
		if p.nodes[i].n == n {
			return p.nodes[i].exprs, true
		}
	}
	return nil, false
}

// nodeExprs appends to buf the expressions a build of n compiles as one
// block, with the columns they read: a Filter's condition, a Project's
// expressions, an Aggregate's group keys and then its aggregates'
// arguments (nil for COUNT(*)), a Sort's keys. ok is false for every other
// node.
func nodeExprs(buf []sqlparse.Expr, n plan.Node) (exprs []sqlparse.Expr, cols []plan.ColMeta, ok bool) {
	if x, ok := n.(*plan.Filter); ok {
		return append(buf, x.Cond), x.Input.Columns(), true
	}
	if x, ok := n.(*plan.Project); ok {
		return x.Exprs, x.Input.Columns(), true
	}
	if x, ok := n.(*plan.Aggregate); ok {
		exprs = append(buf, x.GroupBy...)
		for _, sp := range x.Aggs {
			var arg sqlparse.Expr
			if !sp.Star {
				arg = sp.Arg
			}
			exprs = append(exprs, arg)
		}
		return exprs, x.Input.Columns(), true
	}
	if x, ok := n.(*plan.Sort); ok {
		exprs = buf
		for _, k := range x.Keys {
			exprs = append(exprs, k.Expr)
		}
		return exprs, x.Input.Columns(), true
	}
	return nil, nil, false
}

// compileNode returns n's expressions (see nodeExprs) compiled: prep's,
// when it prepared n, and else compiled into s.
func compileNode(s *Scratch, prep *Prepared, n plan.Node) ([]Expr, error) {
	if fns, ok := prep.lookup(n); ok {
		return fns, nil
	}
	var buf [8]sqlparse.Expr
	exprs, cols, _ := nodeExprs(buf[:0], n)
	return compileAll(s, exprs, cols)
}

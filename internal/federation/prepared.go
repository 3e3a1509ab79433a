package federation

import (
	"context"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// preparedFragment is what a table-backed source keeps in a cached plan's
// slot (exec.FragmentSlot) for one fragment template: the work a fetch of
// it would otherwise repeat, done once, on the first fetch through the
// slot — the engine makes a plan's slots on its second reuse, never for
// the query that compiles it. It was checked against the source's
// capabilities, each scan's access path was chosen, the request's fixed
// size was counted and the expressions were compiled with parameter
// slots. It holds no query's memory and, between fetches, no values; the
// slot hands it to one fetch at a time.
type preparedFragment struct {
	src   *tableBacked
	exprs *exec.Prepared
	scans []scanAccess
	// size is the request size less the IN-list parameters' payload;
	// sizeParams lists those parameters, by index.
	size       int
	sizeParams []int
}

// Process-wide counts of the work a fetch repeats when it is not served
// by a prepared fragment, and of preparations: every capability check,
// every fetch that compiled expressions at the source, every fragment
// prepared.
var validations, sourceCompiles, prepares atomic.Int64

// prepare prepares subtree, a fragment template of this source.
func (s *tableBacked) prepare(subtree plan.Node) (*preparedFragment, error) {
	if err := validateSubtree(s.name, s.caps, subtree); err != nil {
		return nil, err
	}
	f := &preparedFragment{src: s}
	var err error
	plan.Walk(subtree, func(n plan.Node) {
		scan, ok := n.(*plan.Scan)
		if !ok || err != nil {
			return
		}
		var t *storage.Table
		if t, err = s.table(scan.Table); err == nil {
			f.scans = append(f.scans, prepareAccess(nil, t, subtree, scan))
		}
	})
	if err != nil {
		return nil, err
	}
	if f.exprs, err = exec.Prepare(subtree); err != nil {
		return nil, err
	}
	f.size = RequestSizeWith(subtree, nil)
	f.sizeParams = payloadParams(nil, subtree)
	prepares.Add(1)
	return f, nil
}

// requestSize is RequestSizeWith(subtree, params) of the fragment f prepared.
func (f *preparedFragment) requestSize(params []datum.Datum) int {
	size := f.size
	for _, k := range f.sizeParams {
		if k >= 1 && k <= len(params) {
			size += params[k-1].WireSize()
		}
	}
	return size
}

// executeTemplate runs subtree, a fragment of the template the query
// runs, through what this source prepared for it in the template's slot:
// for subtree itself, or for the input of a filter the mediator put over
// it for this fetch alone (a semi-join's key filter), which then compiles
// and joins the access path as in any fetch. ok is false, and nothing has
// run, when the query has no such slot, another fetch holds it, or the
// fragment does not prepare.
func (s *tableBacked) executeTemplate(ctx context.Context, scratch *exec.Scratch, subtree plan.Node) (rows []datum.Row, ok bool, err error) {
	frag, keys := subtree, (*plan.Filter)(nil)
	slot := scratch.Fragment(frag)
	if slot == nil {
		kf, isFilter := subtree.(*plan.Filter)
		if !isFilter || !s.caps.Allows(kf) {
			return nil, false, nil
		}
		if slot = scratch.Fragment(kf.Input); slot == nil {
			return nil, false, nil
		}
		frag, keys = kf.Input, kf
	}
	state, ok := slot.Take()
	if !ok {
		return nil, false, nil
	}
	f, _ := state.(*preparedFragment)
	if f == nil || f.src != s {
		prepared, err := s.prepare(frag)
		if err != nil {
			slot.Put(state)
			return nil, false, nil
		}
		f = prepared
	}
	rows, err = s.executePrepared(ctx, scratch, f, subtree, keys)
	slot.Put(f)
	return rows, true, err
}

// executePrepared runs subtree — the fragment f prepared, or keys over it
// — with the values of the template the query runs: its expressions bound
// to them, its operators built from the query scratch.
func (s *tableBacked) executePrepared(ctx context.Context, scratch *exec.Scratch, f *preparedFragment, subtree plan.Node, keys *plan.Filter) ([]datum.Row, error) {
	params := scratch.Params()
	if err := f.exprs.Bind(params); err != nil {
		return nil, err
	}
	defer f.exprs.Unbind()
	size := f.requestSize(params)
	if keys != nil {
		size += exprPayload(keys.Cond, params)
		sourceCompiles.Add(1)
	}
	rt := exec.New(scratch, fragmentRuntime{src: s, root: subtree, scratch: scratch, params: params, scans: f.scans, keys: keys})
	return s.drainAndShip(ctx, scratch, subtree, rt, exec.Options{Scratch: scratch, Prepared: f.exprs}, size)
}

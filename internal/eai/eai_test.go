package eai

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// ledger is a toy backend recording applied effects, so tests can check
// consistency after failures.
type ledger struct {
	applied []string
}

func (l *ledger) apply(name string) { l.applied = append(l.applied, name) }
func (l *ledger) undo(name string) {
	for i := len(l.applied) - 1; i >= 0; i-- {
		if l.applied[i] == name {
			l.applied = append(l.applied[:i], l.applied[i+1:]...)
			return
		}
	}
}

func step(l *ledger, name string, fail bool) Step {
	return Step{
		Name: name,
		Do: func(*Context) error {
			if fail {
				return errors.New(name + " backend down")
			}
			l.apply(name)
			return nil
		},
		Compensate: func(*Context) error {
			l.undo(name)
			return nil
		},
	}
}

func TestProcessCompletes(t *testing.T) {
	l := &ledger{}
	e := NewEngine()
	p := &Process{Name: "onboard", Steps: []Step{
		step(l, "hr", false), step(l, "facilities", false), step(l, "it", false),
	}}
	out := e.Run(context.Background(), p, nil)
	if !out.Completed || out.StepsRun != 3 || out.Err != nil {
		t.Fatalf("outcome = %+v", out)
	}
	if len(l.applied) != 3 {
		t.Errorf("applied = %v", l.applied)
	}
	if len(out.Compensated) != 0 {
		t.Errorf("nothing should be compensated: %v", out.Compensated)
	}
}

func TestFailureCompensatesInReverse(t *testing.T) {
	l := &ledger{}
	e := NewEngine()
	p := &Process{Name: "onboard", Steps: []Step{
		step(l, "hr", false), step(l, "facilities", false), step(l, "it", true),
	}}
	out := e.Run(context.Background(), p, nil)
	if out.Completed || out.Err == nil {
		t.Fatal("process must abort")
	}
	if len(l.applied) != 0 {
		t.Errorf("saga must leave no residue, got %v", l.applied)
	}
	if fmt.Sprint(out.Compensated) != "[facilities hr]" {
		t.Errorf("compensation order = %v", out.Compensated)
	}
}

func TestNaiveLeavesPartialState(t *testing.T) {
	l := &ledger{}
	p := &Process{Name: "onboard", Steps: []Step{
		step(l, "hr", false), step(l, "facilities", false), step(l, "it", true),
	}}
	out := RunNaive(context.Background(), p, nil)
	if out.Completed || out.Err == nil {
		t.Fatal("naive run must fail")
	}
	// This is the §4 hazard: two systems updated, one not.
	if len(l.applied) != 2 {
		t.Errorf("naive failure should leave partial state, got %v", l.applied)
	}
}

func TestRetriesRecoverTransientFailures(t *testing.T) {
	attempts := 0
	p := &Process{Name: "flaky", Steps: []Step{{
		Name:    "provision",
		Retries: 2,
		Do: func(*Context) error {
			attempts++
			if attempts < 3 {
				return errors.New("transient")
			}
			return nil
		},
	}}}
	out := NewEngine().Run(context.Background(), p, nil)
	if !out.Completed || attempts != 3 {
		t.Fatalf("retries: attempts=%d outcome=%+v", attempts, out)
	}
	retried := 0
	for _, ev := range out.Log {
		if ev.Kind == EventStepRetried {
			retried++
		}
	}
	if retried != 2 {
		t.Errorf("retry events = %d", retried)
	}
}

func TestCompensationFailureIsReported(t *testing.T) {
	p := &Process{Name: "p", Steps: []Step{
		{
			Name:       "a",
			Do:         func(*Context) error { return nil },
			Compensate: func(*Context) error { return errors.New("cannot undo") },
		},
		{
			Name: "b",
			Do:   func(*Context) error { return errors.New("boom") },
		},
	}}
	out := NewEngine().Run(context.Background(), p, nil)
	if len(out.CompensationErrors) != 1 || out.CompensationErrors[0] != "a" {
		t.Errorf("compensation errors = %v", out.CompensationErrors)
	}
}

func TestPanicIsolation(t *testing.T) {
	p := &Process{Name: "p", Steps: []Step{{
		Name: "bad",
		Do:   func(*Context) error { panic("nil map write") },
	}}}
	out := NewEngine().Run(context.Background(), p, nil)
	if out.Completed || out.Err == nil || !strings.Contains(out.Err.Error(), "panic") {
		t.Errorf("panic must become an error: %+v", out.Err)
	}
}

func TestContextPassesDataBetweenSteps(t *testing.T) {
	p := &Process{Name: "p", Steps: []Step{
		{Name: "alloc", Do: func(c *Context) error { c.Set("office", "B42"); return nil }},
		{Name: "notify", Do: func(c *Context) error {
			v, ok := c.Get("office")
			if !ok || v.(string) != "B42" {
				return errors.New("office not allocated")
			}
			return nil
		}},
	}}
	if out := NewEngine().Run(context.Background(), p, nil); !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestEngineHistoryAccumulates(t *testing.T) {
	e := NewEngine()
	p := &Process{Name: "p", Steps: []Step{{Name: "s", Do: func(*Context) error { return nil }}}}
	e.Run(context.Background(), p, nil)
	e.Run(context.Background(), p, nil)
	h := e.History()
	done := 0
	for _, ev := range h {
		if ev.Kind == EventProcessDone {
			done++
		}
	}
	if done != 2 {
		t.Errorf("history should hold 2 completed runs, got %d", done)
	}
}

func TestStepsWithoutCompensationAreSkipped(t *testing.T) {
	l := &ledger{}
	p := &Process{Name: "p", Steps: []Step{
		{Name: "readonly", Do: func(*Context) error { return nil }}, // no Compensate
		step(l, "write", false),
		{Name: "fail", Do: func(*Context) error { return errors.New("x") }},
	}}
	out := NewEngine().Run(context.Background(), p, nil)
	if fmt.Sprint(out.Compensated) != "[write]" {
		t.Errorf("compensated = %v", out.Compensated)
	}
}

// TestRunStopsWhenCancelled: a saga cancelled while step 1 runs never
// starts step 2, compensates step 1, logs the abort, and fails with the
// context's error; the naive runner stops before step 2 as well.
func TestRunStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var l ledger
	started2 := false
	p := &Process{Name: "cancelled", Steps: []Step{
		{
			Name:       "one",
			Do:         func(*Context) error { cancel(); l.applied = append(l.applied, "one"); return nil },
			Compensate: func(*Context) error { l.applied = l.applied[:0]; return nil },
		},
		{Name: "two", Do: func(*Context) error { started2 = true; return nil }},
	}}
	out := NewEngine().Run(ctx, p, nil)
	if started2 || out.Completed || out.StepsRun != 1 {
		t.Fatalf("outcome %+v, step two started %v", out, started2)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", out.Err)
	}
	if len(out.Compensated) != 1 || out.Compensated[0] != "one" || len(l.applied) != 0 {
		t.Errorf("compensated %v, effects left %v", out.Compensated, l.applied)
	}
	if last := out.Log[len(out.Log)-1]; last.Kind != EventProcessAborted {
		t.Errorf("last event %+v, want process-aborted", last)
	}
	for _, ev := range out.Log {
		if ev.Step == "two" {
			t.Errorf("step two logged %+v", ev)
		}
	}

	// A failing step with retries left stops retrying once cancelled.
	ctx, cancel = context.WithCancel(context.Background())
	attempts := 0
	p = &Process{Name: "retrying", Steps: []Step{{Name: "flaky", Retries: 5,
		Do: func(*Context) error { attempts++; cancel(); return errors.New("down") }}}}
	if out := NewEngine().Run(ctx, p, nil); attempts != 1 || !errors.Is(out.Err, context.Canceled) {
		t.Errorf("%d attempts, Err %v; want one attempt and context.Canceled", attempts, out.Err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	started2 = false
	p = &Process{Name: "naive", Steps: []Step{
		{Name: "one", Do: func(*Context) error { cancel(); return nil }},
		{Name: "two", Do: func(*Context) error { started2 = true; return nil }},
	}}
	if out := RunNaive(ctx, p, nil); started2 || out.StepsRun != 1 || !errors.Is(out.Err, context.Canceled) {
		t.Errorf("naive outcome %+v, step two started %v", out, started2)
	}
}

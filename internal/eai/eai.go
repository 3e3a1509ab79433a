// Package eai implements the update-side companion to read-side EII — §4
// (Carey): "'Insert employee into company' is really a business process
// ... Such an update clearly must not be a traditional transaction, instead
// demanding long-running transaction technology and the availability of
// compensation capabilities in the event of a transaction step failure."
//
// A Process is an ordered list of Steps, each with a forward action and an
// optional compensation. The engine runs steps in order; when one fails
// (after its retry budget), the compensations of every completed step run
// in reverse order — the classic saga. An event log records every
// transition for audit.
package eai

import (
	"context"
	"fmt"
	"sync"
)

// Context carries state between the steps of one process execution.
type Context struct {
	mu     sync.Mutex
	values map[string]any
}

// NewContext creates an empty process context.
func NewContext() *Context {
	return &Context{values: make(map[string]any)}
}

// Set stores a value.
func (c *Context) Set(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.values[key] = v
}

// Get fetches a value.
func (c *Context) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[key]
	return v, ok
}

// Step is one unit of a business process.
type Step struct {
	// Name identifies the step in logs.
	Name string
	// Do performs the step's effect against the backend systems.
	Do func(*Context) error
	// Compensate undoes the step's effect; nil marks the step as
	// side-effect free (nothing to undo).
	Compensate func(*Context) error
	// Retries is how many additional attempts Do gets before the step
	// counts as failed.
	Retries int
}

// Process is a named business process definition.
type Process struct {
	Name  string
	Steps []Step
}

// EventKind classifies log events.
type EventKind string

// Event kinds.
const (
	EventStepStarted      EventKind = "step-started"
	EventStepCompleted    EventKind = "step-completed"
	EventStepFailed       EventKind = "step-failed"
	EventStepRetried      EventKind = "step-retried"
	EventCompensated      EventKind = "compensated"
	EventCompensationFail EventKind = "compensation-failed"
	EventProcessDone      EventKind = "process-done"
	EventProcessAborted   EventKind = "process-aborted"
)

// Event is one audit-log record.
type Event struct {
	Process string
	Step    string
	Kind    EventKind
	Err     string
}

// Outcome summarizes one process execution.
type Outcome struct {
	// Completed is true when every step succeeded.
	Completed bool
	// StepsRun counts steps whose Do succeeded.
	StepsRun int
	// Compensated lists steps whose compensation ran (reverse order).
	Compensated []string
	// CompensationErrors lists steps whose compensation itself failed —
	// these require manual repair, the situation sagas try to avoid but
	// must report.
	CompensationErrors []string
	// Err is the forward failure that triggered the abort, nil on
	// success.
	Err error
	// Log is the full event trail.
	Log []Event
}

// Engine executes processes.
type Engine struct {
	mu  sync.Mutex
	log []Event
}

// NewEngine creates a process engine.
func NewEngine() *Engine { return &Engine{} }

// History returns a copy of the engine-wide event log.
func (e *Engine) History() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.log))
	copy(out, e.log)
	return out
}

func (e *Engine) record(o *Outcome, ev Event) {
	e.mu.Lock()
	e.log = append(e.log, ev)
	e.mu.Unlock()
	o.Log = append(o.Log, ev)
}

// Run executes the process as a saga: steps forward, compensations in
// reverse on failure. pc may be nil. ctx is checked before each step and
// each retry: once it is done, no further forward step runs, the steps
// already completed are compensated in reverse, and Outcome.Err wraps
// ctx.Err(). A compensation runs whatever ctx says: an undo left out is
// the inconsistency the saga exists to prevent.
func (e *Engine) Run(ctx context.Context, p *Process, pc *Context) Outcome {
	if pc == nil {
		pc = NewContext()
	}
	var out Outcome
	completed := make([]Step, 0, len(p.Steps))
	abort := func(where string, err error) Outcome {
		out.Err = fmt.Errorf("eai: process %s: %s: %w", p.Name, where, err)
		e.compensate(p, completed, pc, &out)
		e.record(&out, Event{Process: p.Name, Kind: EventProcessAborted, Err: err.Error()})
		return out
	}
	for _, step := range p.Steps {
		if err := ctx.Err(); err != nil {
			return abort("cancelled before step "+step.Name, err)
		}
		e.record(&out, Event{Process: p.Name, Step: step.Name, Kind: EventStepStarted})
		var err error
		for attempt := 0; ; attempt++ {
			err = runStep(step.Do, pc)
			if err == nil || attempt >= step.Retries {
				break
			}
			if cerr := ctx.Err(); cerr != nil {
				err = fmt.Errorf("%w, retry abandoned after: %w", cerr, err)
				break
			}
			e.record(&out, Event{Process: p.Name, Step: step.Name, Kind: EventStepRetried, Err: err.Error()})
		}
		if err != nil {
			e.record(&out, Event{Process: p.Name, Step: step.Name, Kind: EventStepFailed, Err: err.Error()})
			return abort("step "+step.Name, err)
		}
		e.record(&out, Event{Process: p.Name, Step: step.Name, Kind: EventStepCompleted})
		completed = append(completed, step)
		out.StepsRun++
	}
	out.Completed = true
	e.record(&out, Event{Process: p.Name, Kind: EventProcessDone})
	return out
}

func (e *Engine) compensate(p *Process, completed []Step, pc *Context, out *Outcome) {
	for i := len(completed) - 1; i >= 0; i-- {
		step := completed[i]
		if step.Compensate == nil {
			continue
		}
		if err := runStep(step.Compensate, pc); err != nil {
			out.CompensationErrors = append(out.CompensationErrors, step.Name)
			e.record(out, Event{Process: p.Name, Step: step.Name, Kind: EventCompensationFail, Err: err.Error()})
			continue
		}
		out.Compensated = append(out.Compensated, step.Name)
		e.record(out, Event{Process: p.Name, Step: step.Name, Kind: EventCompensated})
	}
}

// runStep isolates panics so a buggy step aborts its process, not the
// engine.
func runStep(fn func(*Context) error, pc *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(pc)
}

// RunNaive executes the steps with no compensation — the "just write to
// every system" baseline a virtual-database update amounts to. On failure,
// the effects of completed steps simply remain: the inconsistent state §4
// warns about. It exists so experiments can measure the difference. ctx is
// checked before each step; once it is done, Outcome.Err wraps ctx.Err().
func RunNaive(ctx context.Context, p *Process, pc *Context) Outcome {
	if pc == nil {
		pc = NewContext()
	}
	var out Outcome
	for _, step := range p.Steps {
		err := ctx.Err()
		if err == nil {
			err = runStep(step.Do, pc)
		}
		if err != nil {
			out.Err = fmt.Errorf("eai: naive %s: step %s: %w", p.Name, step.Name, err)
			return out
		}
		out.StepsRun++
	}
	out.Completed = true
	return out
}

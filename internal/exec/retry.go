package exec

import (
	"context"
	"errors"
	"time"

	"repro/internal/datum"
	"repro/internal/plan"
)

// RetryPolicy controls how remote fetches are retried. The zero value
// performs a single attempt. Backoff is charged in *virtual* time (via
// FetchHooks.ChargeBackoff), so retried benchmarks stay fast while the
// latency cost still shows up in the query's network accounting.
type RetryPolicy struct {
	// Attempts is the total number of tries per fetch; values <= 1 mean
	// no retry.
	Attempts int
	// BaseBackoff is the wait before the second attempt; it doubles on
	// each further retry. Zero defaults to 10ms.
	BaseBackoff time.Duration
	// CapBackoff bounds the exponential growth. Zero defaults to 1s.
	CapBackoff time.Duration
	// SleepBackoff makes each retry actually wait out its backoff in
	// wall-clock time (on top of the virtual-time charge). The wait
	// aborts immediately when the query's context is cancelled, so an
	// expired deadline never sleeps out the full capped window.
	SleepBackoff bool
}

func (p RetryPolicy) attempts() int {
	if p.Attempts <= 1 {
		return 1
	}
	return p.Attempts
}

// Backoff returns the wait before the given retry (1 = first retry),
// capped exponential on the base.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	cap := p.CapBackoff
	if cap <= 0 {
		cap = time.Second
	}
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// FetchHooks bundles the retry/fault observation callbacks of one query
// (Options.Hooks). Implementing it on an already-allocated per-query
// runtime hands exec all three hooks as a single interface value instead
// of three captured closures.
type FetchHooks interface {
	// ChargeBackoff charges one retry's backoff to the source's clock.
	ChargeBackoff(source string, d time.Duration)
	// OnRetry observes each retry attempt per source.
	OnRetry(source string)
	// OnSourceError observes every failed fetch attempt.
	OnSourceError(source string, attempt int, err error)
}

// temporary matches netsim.FaultError and any other transient error type.
type temporary interface{ Temporary() bool }

// Retryable reports whether an error from a remote fetch is worth
// retrying: something in its chain declares itself Temporary. Planner
// errors, capability violations and tripped circuit breakers are
// permanent for the duration of the query and fail fast.
func Retryable(err error) bool {
	for err != nil {
		if t, ok := err.(temporary); ok {
			return t.Temporary()
		}
		err = errors.Unwrap(err)
	}
	return false
}

// FetchRemote runs a pushed-down subtree, r.Child, at r's source through
// the retry and degradation pipeline: retry transient failures per
// opts.Retry with capped exponential backoff, then — if the fetch still
// fails — offer the failure to opts.OnRemoteFail, which may substitute
// alternative rows (a replica read, or an empty result for
// partial-tolerant queries). All Remote dispatches funnel through here so
// every fetch in a plan gets the same fault handling. The attempt that
// succeeds lists r and its rows in opts.Cards, when set; failed attempts
// and substituted rows list nothing, so feedback learns only what a
// source answered.
//
// Cancellation dominates retries: a done context aborts the loop before
// the next attempt (and mid-backoff when SleepBackoff waits in wall-clock
// time), returning ctx.Err() unwrapped — context.Canceled and
// context.DeadlineExceeded are the caller's signals, never a source
// failure, so degradation (OnRemoteFail) is not consulted for them.
func FetchRemote(ctx context.Context, rt Runtime, opts Options, r *plan.Remote) ([]datum.Row, error) {
	source := r.Source
	attempts := opts.Retry.attempts()
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			backoff := opts.Retry.Backoff(attempt - 1)
			if opts.Hooks != nil {
				opts.Hooks.ChargeBackoff(source, backoff)
				opts.Hooks.OnRetry(source)
			}
			if opts.Retry.SleepBackoff {
				if cerr := sleepBackoff(ctx, backoff); cerr != nil {
					return nil, cerr
				}
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		var rows []datum.Row
		rows, err = rt.RunRemote(ctx, source, r.Child)
		if err == nil {
			if opts.Cards != nil {
				opts.Cards.recordFetch(r, int64(len(rows)))
			}
			return rows, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The attempt failed because (or while) the query was
			// cancelled; propagate the context error unwrapped.
			return nil, cerr
		}
		if opts.Hooks != nil {
			opts.Hooks.OnSourceError(source, attempt, err)
		}
		if !Retryable(err) {
			break
		}
	}
	if opts.OnRemoteFail != nil {
		if alt, ok := opts.OnRemoteFail(source, r.Child, err); ok {
			return alt, nil
		}
	}
	return nil, err
}

// sleepBackoff blocks for one backoff window, waking early with ctx.Err()
// when the query is cancelled or its deadline expires.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

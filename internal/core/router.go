package core

// This file is the engine half of the sharded-cluster seam (E18): a
// pluggable router that intercepts remote fetches whose source shard is
// owned by a peer mediator node. The engine stays cluster-agnostic — it
// only knows that some fetches may be answered by "someone else" who is
// filter-capable; internal/cluster supplies the someone else.

import (
	"context"
	"fmt"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// FetchRouter intercepts remote fetches before they reach the local
// source wrapper. A sharded cluster installs one per node so fetches
// against shards owned by a peer mediator execute at the owner and only
// the (possibly key-filtered) result rows cross the inter-node link.
type FetchRouter interface {
	// RouteRemote executes the fragment elsewhere when this router owns
	// the decision for source. handled=false means "not mine": the
	// engine proceeds with its normal local fetch (breaker, retry,
	// source wrapper). When handled=true the rows/err pair is the whole
	// answer — the engine does not fall back to the local path. The rows
	// are borrowed from the calling query and valid until it ends. A
	// subtree holding parameters is a fragment of the plan template the
	// query runs, whose values ride ctx's scratch (exec.Scratch.Params).
	RouteRemote(ctx context.Context, source string, subtree plan.Node) (rows []datum.Row, handled bool, err error)
	// FilterCapable reports whether fragments for source run at a peer
	// mediator that can absorb shipped key predicates (IN-lists, bloom
	// filters) regardless of the underlying source's own capabilities.
	// The optimizer consults this when deciding AllowKeyFilter.
	FilterCapable(source string) bool
}

// SetFetchRouter installs (or, with nil, removes) the cluster fetch
// router. Routing changes where fragments execute and therefore how
// plans place remote work, so cached plans compiled under the previous
// routing are retired.
func (e *Engine) SetFetchRouter(r FetchRouter) {
	e.update(func(s *engineState) { s.router = r })
	e.BumpCatalog()
}

// RunFragment executes a plan fragment shipped from a peer coordinator.
// The fragment is re-optimized locally — the owner may place further
// remote work against its own sources — and executed under the caller's
// context, so a cancelled scatter-gather aborts the fragment too. It
// bypasses this node's admission queue: the query carrying the fragment
// was already admitted (and is charged) at its coordinating node. Its
// rows land in the calling query's scratch, riding ctx (the heap without
// one), valid until that query ends; an answer the owner degraded under
// qo.AllowPartial is a *PartialFragmentError, for the caller to judge.
// The fragment optimizes into a pooled arena, as it dies with executeCtx.
// A fragment of the plan template the caller runs holds its parameters:
// it runs with the values of that template, read from the same scratch.
func (e *Engine) RunFragment(ctx context.Context, subtree plan.Node, qo QueryOptions) ([]datum.Row, error) {
	qo.fragment = true
	st := e.state.Load()
	ar := sqlparse.GetArena()
	defer sqlparse.PutArena(ar)
	p, est := opt.OptimizeCosted(ar, subtree, st.planEnv(qo), optimizerOptions(qo))
	tb := binding{params: exec.ScratchFrom(ctx).Params()}
	res, err := e.executeCtx(ctx, st, p, tb, qo, "", 0, est)
	if err != nil {
		return nil, fmt.Errorf("core: fragment execution: %w", err)
	}
	if res.Partial {
		return nil, &PartialFragmentError{Skipped: res.SkippedSources}
	}
	return res.Rows, nil
}

// PartialFragmentError is a peer fragment whose owner skipped the failed
// sources Skipped: its rows miss theirs, so it fails like the fetches it lost.
type PartialFragmentError struct{ Skipped []string }

func (e *PartialFragmentError) Error() string {
	return fmt.Sprint("core: fragment answered without sources ", e.Skipped)
}

// PeerFilterCapable implements opt.PeerEnv by delegating to the installed
// fetch router (false when no router is installed): shard-aware placement
// treats peer-owned sources as filter-capable remotes.
func (env engineEnv) PeerFilterCapable(source string) bool {
	if r := env.st.router; r != nil {
		return r.FilterCapable(source)
	}
	return false
}

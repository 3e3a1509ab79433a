package opt

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// AvailabilityEnv is optionally implemented by planning environments that
// track source health (circuit breakers). The optimizer plans no
// cooperative fetches — semi-join key shipping — against a source that is
// currently unavailable, since the reduced fetch would only fail and force
// a second, full fetch after recovery.
type AvailabilityEnv interface {
	Available(source string) bool
}

func sourceAvailable(env Env, source string) bool {
	if a, ok := env.(AvailabilityEnv); ok {
		return a.Available(source)
	}
	return true
}

// PeerEnv is optionally implemented by planning environments where remote
// fragments may execute at a peer mediator node rather than directly at
// the source (the sharded cluster of E18). A peer node is a full mediator:
// it can absorb key-list and bloom filters even when the underlying source
// cannot (scan-only wrappers), applying them locally before shipping rows
// back — so shard-aware placement treats peer-owned sources as
// filter-capable remotes.
type PeerEnv interface {
	// PeerFilterCapable reports whether fragments for this source run at
	// a peer mediator node that can apply shipped key filters.
	PeerFilterCapable(source string) bool
}

func peerFilterCapable(env Env, source string) bool {
	if p, ok := env.(PeerEnv); ok {
		return p.PeerFilterCapable(source)
	}
	return false
}

// allowKeyFilter decides the Remote's AllowKeyFilter flag: the fetch site
// must be able to evaluate a shipped key predicate (the source itself
// pushes filters, or a peer mediator node owns the shard) and the source
// must currently be available.
func allowKeyFilter(env Env, source string) bool {
	if env == nil {
		return false
	}
	return (env.Caps(source).PushFilter || peerFilterCapable(env, source)) &&
		sourceAvailable(env, source)
}

// placeRemotes wraps maximal single-source, capability-compatible subtrees
// in Remote nodes so they execute at the source. Everything outside a
// Remote runs at the mediator; bare scans that end up outside still ship
// their whole table (the execution runtime treats an unwrapped Scan as
// Remote(Scan)), so placement here is purely an optimization decision.
func placeRemotes(n plan.Node, env Env, opts Options) plan.Node {
	out, src := place(n, env, opts)
	if src != "" {
		return &plan.Remote{Source: src, Child: out, AllowKeyFilter: allowKeyFilter(env, src)}
	}
	return out
}

// place rewrites the subtree and reports the owning source if the entire
// result is still executable at a single source ("" otherwise). When a
// child subtree is pushable but the current node is not, the child gets
// wrapped in Remote here.
func place(n plan.Node, env Env, opts Options) (plan.Node, string) {
	switch x := n.(type) {
	case *plan.Scan:
		if x.Source == "" && x.Table == "" {
			return x, "" // FROM-less dual runs at the mediator
		}
		return x, x.Source
	case *plan.Remote:
		// Already placed (idempotent re-optimization).
		return x, ""
	case *plan.Filter, *plan.Project, *plan.Join, *plan.Aggregate,
		*plan.Sort, *plan.Limit, *plan.Distinct, *plan.Union:
		// Interior operators: placed by the generic child-merging
		// logic below.
	default:
		panic(fmt.Sprintf("opt: place missing case for %T", n))
	}

	// Place every input, noting which ones are still executable at a
	// single source (src != "") and whether they all share one.
	var srcBuf [2]string
	srcs := srcBuf[:0]
	owner, uniform := "", true
	placed := plan.MapInputs(n, func(in plan.Node) plan.Node {
		out, src := place(in, env, opts)
		srcs = append(srcs, src)
		switch {
		case src == "" || (owner != "" && owner != src):
			uniform = false
		case owner == "":
			owner = src
		}
		return out
	})

	if uniform && !opts.NoRemotePushdown && env != nil && env.Caps(owner).Allows(n) {
		// The whole node stays pushable.
		return placed, owner
	}

	// Close off pushable inputs with Remote boundaries.
	i := 0
	return plan.MapInputs(placed, func(in plan.Node) plan.Node {
		src := srcs[i]
		i++
		switch {
		case src == "":
			return in
		case opts.NoRemotePushdown:
			// Naive mode: only bare scans cross the link.
			return demoteToScanShipping(in, src)
		default:
			return &plan.Remote{Source: src, Child: in, AllowKeyFilter: allowKeyFilter(env, src)}
		}
	}), ""
}

// demoteToScanShipping rewrites a pushable subtree so each scan ships
// whole tables and all other operators run at the mediator.
func demoteToScanShipping(n plan.Node, source string) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		if s, ok := x.(*plan.Scan); ok {
			return &plan.Remote{Source: s.Source, Child: s}
		}
		return x
	})
}

// annotateSemiJoins decides, per cross-source join, whether one input
// should be fetched semi-join-reduced by the other's keys — the "best
// assembly site / local reduction" decision of §3. A side qualifies when it
// is a filter-capable Remote, the probe side is small enough to ship its
// distinct keys, and the reduction is estimated to pay for the extra round
// trip.
func annotateSemiJoins(n plan.Node, env Env) plan.Node {
	est := newEstimator(env)
	return plan.Transform(n, func(x plan.Node) plan.Node {
		j, ok := x.(*plan.Join)
		if !ok || j.Cond == nil {
			return x
		}
		leftKeys, rightKeys, _ := plan.EquiKeys(j.Cond, j.Left.Columns(), j.Right.Columns())
		if len(leftKeys) == 0 {
			return x
		}
		// savings estimates how many rows a reduction avoids shipping:
		// the reduced side keeps roughly probeRows/keyDistinct of its
		// rows (containment assumption).
		savings := func(probe, reduce plan.Node, reduceKey sqlparse.Expr) float64 {
			r, isRemote := reduce.(*plan.Remote)
			if !isRemote || !r.AllowKeyFilter {
				return 0
			}
			probeRows := est.Rows(probe)
			if probeRows > plan.DefaultBloomKeyCap {
				// Too many keys even for a bloom summary; the executor
				// would fall back to a full fetch anyway.
				return 0
			}
			reduceRows := est.Rows(reduce)
			keyDistinct := est.distinctOf(reduceKey, r.Child)
			if keyDistinct < 1 {
				keyDistinct = 1
			}
			kept := reduceRows * probeRows / keyDistinct
			if kept > reduceRows {
				kept = reduceRows
			}
			saved := reduceRows - kept
			// Require the reduction to at least halve the fetch.
			if saved < reduceRows/2 {
				return 0
			}
			// Ship-cost gate: the avoided row bytes must clearly beat the
			// bytes spent shipping the key set. Past the exact IN-list cap
			// the executor ships a bloom filter, whose size grows far
			// slower than the key list — this is what removes the old
			// cliff at DefaultSemiJoinKeyCap.
			keyShip := probeRows * 12 // ~bytes per shipped key literal
			if probeRows > plan.DefaultSemiJoinKeyCap {
				keyShip = float64(bloom.EstimateBytes(int(probeRows)))
			}
			// The 2x margin prices the reduction's extra round trip. A
			// source observed to run slower than its link model — or one
			// whose breaker is half-open and unproven — raises the bar:
			// speculative extra round trips against a struggling source
			// need a bigger payoff. The factor never loosens the gate.
			margin := 2 * networkFactor(env, r.Source)
			if margin < 2 {
				margin = 2
			}
			if saved*est.RowWidth(reduce) < margin*keyShip {
				return 0
			}
			return saved
		}
		saveRight := savings(j.Left, j.Right, rightKeys[0])
		saveLeft := 0.0
		if j.Type == sqlparse.JoinInner {
			saveLeft = savings(j.Right, j.Left, leftKeys[0])
		}
		hint := plan.SemiJoinNone
		switch {
		case saveRight > 0 && saveRight >= saveLeft:
			hint = plan.SemiJoinReduceRight
		case saveLeft > 0:
			hint = plan.SemiJoinReduceLeft
		}
		if hint == j.SemiJoin {
			// Covers both fresh plans that get no hint and
			// re-optimization passes that reconfirm an existing one.
			return x
		}
		nj := plan.NewJoin(j.Type, j.Left, j.Right, j.Cond)
		nj.SemiJoin = hint
		nj.Parallel = j.Parallel
		return nj
	})
}

package opt

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// semiEnv sets up stats where "small" has few rows and "big" has many, with
// a joinable key whose distinct count equals the big table's rows.
func semiEnv() *fakeEnv {
	ev := env()
	small := schema.MustTable("small", []schema.Column{{Name: "k", Kind: datum.KindInt}})
	big := schema.MustTable("big", []schema.Column{{Name: "k", Kind: datum.KindInt}})
	sSmall := schema.DefaultStats(small, 20)
	sSmall.Cols[0].Distinct = 20
	sBig := schema.DefaultStats(big, 50000)
	sBig.Cols[0].Distinct = 50000
	ev.stats["s1.small"] = sSmall
	ev.stats["s2.big"] = sBig
	return ev
}

func remote(src string, n plan.Node, allowKeys bool) *plan.Remote {
	return &plan.Remote{Source: src, Child: n, AllowKeyFilter: allowKeys}
}

func TestSemiJoinHintReduceRight(t *testing.T) {
	ev := semiEnv()
	j := plan.NewJoin(nil, sqlparse.JoinInner,
		remote("s1", scan("s1", "small", "k"), true),
		remote("s2", scan("s2", "big", "k"), true),
		expr(t, "small.k = big.k"))
	out := annotateSemiJoins(nil, j, newEstimator(ev))
	j2 := out.(*plan.Join)
	if j2.SemiJoin != plan.SemiJoinReduceRight {
		t.Errorf("hint = %v, want reduce-right (big side)", j2.SemiJoin)
	}
}

func TestSemiJoinHintReduceLeftWhenBigIsLeft(t *testing.T) {
	ev := semiEnv()
	j := plan.NewJoin(nil, sqlparse.JoinInner,
		remote("s2", scan("s2", "big", "k"), true),
		remote("s1", scan("s1", "small", "k"), true),
		expr(t, "small.k = big.k"))
	out := annotateSemiJoins(nil, j, newEstimator(ev))
	j2 := out.(*plan.Join)
	if j2.SemiJoin != plan.SemiJoinReduceLeft {
		t.Errorf("hint = %v, want reduce-left", j2.SemiJoin)
	}
}

func TestSemiJoinHintNeverReducesPreservedSideOfLeftJoin(t *testing.T) {
	ev := semiEnv()
	// LEFT JOIN with the big side on the left: reducing the left
	// (preserved) side would drop rows, so no left-reduction hint.
	j := plan.NewJoin(nil, sqlparse.JoinLeft,
		remote("s2", scan("s2", "big", "k"), true),
		remote("s1", scan("s1", "small", "k"), true),
		expr(t, "small.k = big.k"))
	out := annotateSemiJoins(nil, j, newEstimator(ev))
	j2 := out.(*plan.Join)
	if j2.SemiJoin == plan.SemiJoinReduceLeft {
		t.Error("left join preserved side must not be reduced")
	}
	// But reducing the right side of a LEFT JOIN is safe and, with the
	// small side right... small is already small; reduction unprofitable.
	// Flip sizes so the right side is the big one:
	j3 := plan.NewJoin(nil, sqlparse.JoinLeft,
		remote("s1", scan("s1", "small", "k"), true),
		remote("s2", scan("s2", "big", "k"), true),
		expr(t, "small.k = big.k"))
	out3 := annotateSemiJoins(nil, j3, newEstimator(ev))
	if out3.(*plan.Join).SemiJoin != plan.SemiJoinReduceRight {
		t.Error("right side of LEFT JOIN is reducible")
	}
}

func TestSemiJoinHintRespectsCapabilities(t *testing.T) {
	ev := semiEnv()
	// Big side cannot absorb key filters: no hint.
	j := plan.NewJoin(nil, sqlparse.JoinInner,
		remote("s1", scan("s1", "small", "k"), true),
		remote("s2", scan("s2", "big", "k"), false),
		expr(t, "small.k = big.k"))
	out := annotateSemiJoins(nil, j, newEstimator(ev))
	if out.(*plan.Join).SemiJoin != plan.SemiJoinNone {
		t.Error("scan-only side must not be hinted")
	}
}

func TestSemiJoinHintSkipsBigProbeSides(t *testing.T) {
	ev := semiEnv()
	// Both sides big: the probe side exceeds the key cap → no hint.
	j := plan.NewJoin(nil, sqlparse.JoinInner,
		remote("s2", scan("s2", "big", "k"), true),
		remote("s2", scan("s2", "big", "k"), true),
		expr(t, "big.k = big.k"))
	// Self-join aliasing aside, the estimator sees 50000 rows per side.
	out := annotateSemiJoins(nil, j, newEstimator(ev))
	if out.(*plan.Join).SemiJoin != plan.SemiJoinNone {
		t.Error("huge probe side must not ship keys")
	}
}

func TestSemiJoinHintSkipsNonEquiJoins(t *testing.T) {
	ev := semiEnv()
	j := plan.NewJoin(nil, sqlparse.JoinInner,
		remote("s1", scan("s1", "small", "k"), true),
		remote("s2", scan("s2", "big", "k"), true),
		expr(t, "small.k < big.k"))
	out := annotateSemiJoins(nil, j, newEstimator(ev))
	if out.(*plan.Join).SemiJoin != plan.SemiJoinNone {
		t.Error("theta join must not be hinted")
	}
}

var _ = federation.FullSQL // keep the import for the fakeEnv helpers

package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestArenaBytesCountsQueryMemory: Result.ArenaBytes is the payload a query
// drew from its scratch, plus its front-end arena's AST and plan nodes when
// it came through a statement. A plan run through ExecuteCtx still draws
// its operators from a scratch, so the figure is positive there too; and a
// warm plan-cache hit draws the same values each time, so it repeats, once
// its plan is prepared: the plan's second reuse prepares it, and from then
// on its sources compile nothing of it into the scratch.
func TestArenaBytesCountsQueryMemory(t *testing.T) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 120
	crm, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, ctx, qo := crm.Engine, context.Background(), core.DefaultQueryOptions()
	sql := workload.PortalSQL(0)

	p, err := e.Plan(ctx, sql, qo)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.ExecuteCtx(ctx, p, qo)
	if err != nil {
		t.Fatal(err)
	}
	if direct.ArenaBytes <= 0 {
		t.Errorf("ExecuteCtx: ArenaBytes = %d, want > 0", direct.ArenaBytes)
	}

	cold, err := e.QueryOptsCtx(ctx, sql, qo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryOptsCtx(ctx, sql, qo); err != nil { // the first reuse
		t.Fatal(err)
	}
	warm, err := e.QueryOptsCtx(ctx, sql, qo)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.QueryOptsCtx(ctx, sql, qo)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || !warm.CacheHit || !again.CacheHit {
		t.Fatalf("cache hits: cold %v, warm %v, again %v; want false, true, true",
			cold.CacheHit, warm.CacheHit, again.CacheHit)
	}
	if warm.ArenaBytes <= 0 || warm.ArenaBytes != again.ArenaBytes {
		t.Errorf("warm hits: ArenaBytes = %d then %d, want one positive value",
			warm.ArenaBytes, again.ArenaBytes)
	}
	t.Logf("ArenaBytes: ExecuteCtx %d, cold %d, warm %d",
		direct.ArenaBytes, cold.ArenaBytes, warm.ArenaBytes)
}

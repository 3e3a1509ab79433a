package core_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// templateOptions are the configurations the template path is checked
// under: the zero options, the serving defaults, no semi-joins, one and
// four workers, and row-at-a-time batches.
var templateOptions = []struct {
	label string
	qo    core.QueryOptions
}{
	{"zero", core.QueryOptions{}},
	{"default", core.DefaultQueryOptions()},
	{"no-semijoin", core.QueryOptions{NoSemiJoin: true}},
	{"parallelism 1", core.QueryOptions{Parallelism: 1}},
	{"parallelism 4", core.QueryOptions{Parallelism: 4}},
	{"batch 1", core.QueryOptions{BatchSize: 1}},
}

// answerOf renders a result as its sorted rows, or its error.
func answerOf(r *core.Result, err error) string {
	if err != nil {
		return "error"
	}
	rows := strings.Split(canonical(r), "\n")
	slices.Sort(rows)
	return strings.Join(rows, "\n")
}

// brief shortens an answer for a failure message.
func brief(answer string) string {
	if len(answer) > 160 {
		return fmt.Sprintf("%s… (%d rows)", answer[:160], strings.Count(answer, "\n")+1)
	}
	return answer
}

// templateRunner runs statements of one engine, or of a cluster's
// coordinator, and the twins they are checked against.
type templateRunner struct {
	query      func(ctx context.Context, sql string, qo core.QueryOptions) (*core.Result, error)
	unprepared func(ctx context.Context, sql string, qo core.QueryOptions) (*core.Result, error)
	e          *core.Engine // prepares and invalidates
}

// checkTemplatePath runs sql under qo cold (a miss runs the template with
// no prepared slots), warm (a hit runs it with its slots), warm with its
// extracted literals changed, and prepared, and checks each answer against
// a NoPlanCache compile with the literals inline, and each hit's network
// accounting, Partial and SkippedSources against its unprepared twin,
// where the twin ran the same template without re-planning.
func checkTemplatePath(t *testing.T, r templateRunner, label, sql string, qo core.QueryOptions) {
	t.Helper()
	ctx := context.Background()
	fresh := qo
	fresh.NoPlanCache = true
	check := func(what, stmt string, got *core.Result, err error) {
		t.Helper()
		want, werr := r.query(ctx, stmt, fresh)
		if (err != nil) != (werr != nil) || answerOf(got, err) != answerOf(want, werr) {
			t.Fatalf("%s %s %q: got %q (%v), a fresh compile %q (%v)", label, what, stmt, brief(answerOf(got, err)), err, brief(answerOf(want, werr)), werr)
		}
		if err != nil || !got.CacheHit {
			return
		}
		twin, terr := r.unprepared(ctx, stmt, qo)
		if terr != nil {
			t.Fatalf("%s %s %q: unprepared twin: %v", label, what, stmt, terr)
		}
		if answerOf(twin, nil) != answerOf(got, nil) || twin.Partial != got.Partial || !slices.Equal(twin.SkippedSources, got.SkippedSources) {
			t.Fatalf("%s %s %q: hit answered %q partial %v skipped %v, unprepared %q partial %v skipped %v", label, what, stmt,
				brief(answerOf(got, nil)), got.Partial, got.SkippedSources, brief(answerOf(twin, nil)), twin.Partial, twin.SkippedSources)
		}
		if twin.Plan == got.Plan && twin.ReplanCount == 0 && got.ReplanCount == 0 && twin.Network != got.Network {
			t.Fatalf("%s %s %q: hit network %+v, unprepared %+v", label, what, stmt, got.Network, twin.Network)
		}
	}
	r.e.InvalidatePlans()
	for _, what := range []string{"cold", "warm"} {
		res, err := r.query(ctx, sql, qo)
		check(what, sql, res, err)
	}
	norm, vals, ok := referenceKey(t, sql)
	if !ok {
		return
	}
	extracted := func(i int) bool {
		n, _, _ := referenceKey(t, changeLiterals(sql, func(j int) bool { return j == i }))
		return n == norm
	}
	changed := changeLiterals(sql, extracted)
	res, err := r.query(ctx, changed, qo)
	check("warm, values changed", changed, res, err)
	ps, err := r.e.PrepareOpts(ctx, norm, qo)
	if err != nil {
		t.Fatalf("%s: prepare %q: %v", label, norm, err)
	}
	for run := 1; run <= 2; run++ {
		res, err := ps.ExecuteCtx(ctx, vals...)
		check(fmt.Sprintf("prepared run %d", run), sql, res, err)
	}
}

// TestTemplateHitMatchesUnpreparedRun runs the token-path corpus — the
// cost cases, the random equivalence statements, the subquery corpus and
// the benchmark's statement families — under every template option set,
// on one node and, for the benchmark families, on a 2-node cluster.
func TestTemplateHitMatchesUnpreparedRun(t *testing.T) {
	type stmt struct {
		e   *core.Engine
		sql string
	}
	var stmts []stmt
	seen := map[stmt]bool{}
	add := func(e *core.Engine, sql string) {
		if s := (stmt{e, sql}); !seen[s] {
			seen[s] = true
			stmts = append(stmts, s)
		}
	}
	for _, c := range costCases(t, 12) {
		add(c.e, c.sql)
	}
	fed := core.NewTestFederation(t)
	for _, sql := range core.EquivalenceStatements(60) {
		add(fed, sql)
	}
	for _, c := range subqueryCostCases(t) {
		add(c.e, c.sql)
	}
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	crm, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range benchFamilies {
		add(crm.Engine, sql)
	}
	for _, s := range stmts {
		r := templateRunner{query: s.e.QueryOptsCtx, unprepared: s.e.QueryUnprepared, e: s.e}
		for _, o := range templateOptions {
			checkTemplatePath(t, r, o.label, s.sql, o.qo)
		}
	}

	ccfg := cluster.Config{Nodes: 2}
	for o := cluster.Owners(ccfg, "crm", "billing"); o[0] == o[1]; o = cluster.Owners(ccfg, "crm", "billing") {
		ccfg.Seed++
	}
	cl, err := cluster.New(ccfg, func(int) (*core.Engine, error) { return crm.NewEngine() })
	if err != nil {
		t.Fatal(err)
	}
	coord := cl.Coordinator().Engine()
	r := templateRunner{query: coord.QueryOptsCtx, unprepared: coord.QueryUnprepared, e: coord}
	for _, sql := range benchFamilies {
		for _, o := range templateOptions {
			checkTemplatePath(t, r, "2-node "+o.label, sql, o.qo)
		}
	}
}

// portalTemplate is the portal point query's normalized text: the
// statement PrepareOpts compiles and workload.PortalSQL's key.
const portalTemplate = "SELECT name, amount, status FROM customer360 WHERE id = $1 AND amount > $2"

// poisonQueryMemory takes a pooled query scratch and front-end arena,
// draws from them the kinds of memory a query's plan, operators and
// values live in, overwrites it, and returns them: whatever a cached plan
// kept of an earlier query's memory now reads garbage.
func poisonQueryMemory() {
	junk := datum.NewString("poison")
	s := exec.GetScratch()
	for i := 0; i < 16; i++ {
		for _, d := range [][]datum.Datum{exec.Make[datum.Datum](s, 512), exec.Make[datum.Datum](s, 8)} {
			for k := range d {
				d[k] = junk
			}
		}
		exec.Make[exec.Expr](s, 256)
		rows := exec.Make[datum.Row](s, 64)
		for k := range rows {
			rows[k] = datum.Row{junk}
		}
	}
	exec.PutScratch(s)
	ar := sqlparse.GetArena()
	for i := 0; i < 1024; i++ {
		sqlparse.New(ar, sqlparse.Literal{Value: junk})
		sqlparse.New(ar, sqlparse.Param{Index: 99})
	}
	sqlparse.PutArena(ar)
}

// TestTemplateOutlivesQueryMemory: a warm hit runs the cached template
// and its sources' prepared fragments with values that live in the
// query's arena, and operators in its scratch; none of it may stay behind
// in the plan. Every run is followed by poisoning the pooled scratches and
// arenas, and every warm run must still answer as a fresh compile does.
func TestTemplateOutlivesQueryMemory(t *testing.T) {
	ctx := context.Background()
	crm, err := workload.CRMOf(120)
	if err != nil {
		t.Fatal(err)
	}
	qo := core.DefaultQueryOptions()
	fresh := core.QueryOptions{NoPlanCache: true}
	ps, err := crm.Engine.PrepareOpts(ctx, portalTemplate, qo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sql := workload.PortalSQL(i)
		want := answerOf(crm.Engine.QueryOptsCtx(ctx, sql, fresh))
		res, err := crm.Engine.QueryOptsCtx(ctx, sql, qo)
		poisonQueryMemory()
		if got := answerOf(res, err); got != want {
			t.Fatalf("run %d %q: %q, a fresh compile %q", i, sql, got, want)
		}
		res, err = ps.ExecuteCtx(ctx, datum.NewInt(int64(1+i%97)), datum.NewInt(int64(100+50*(i%9))))
		poisonQueryMemory()
		if got := answerOf(res, err); got != want {
			t.Fatalf("prepared run %d: %q, a fresh compile %q", i, got, want)
		}
	}
	for _, sql := range benchFamilies {
		want := answerOf(crm.Engine.QueryOptsCtx(ctx, sql, fresh))
		for run := 0; run < 3; run++ {
			res, err := crm.Engine.QueryOptsCtx(ctx, sql, qo)
			poisonQueryMemory()
			if got := answerOf(res, err); got != want {
				t.Fatalf("%q run %d: %q, a fresh compile %q", sql, run, brief(got), brief(want))
			}
		}
	}
}

// TestCatalogWriteRetiresPreparedFragments: a plan's prepared fragments
// live on its cache entry. They are made by its second reuse, not by the
// compile; a catalog write the plan did not read keeps them; one that
// retires the plan retires them with it, and the recompiled plan prepares
// its own.
func TestCatalogWriteRetiresPreparedFragments(t *testing.T) {
	ctx := context.Background()
	crm, err := workload.CRMOf(60)
	if err != nil {
		t.Fatal(err)
	}
	e, qo := crm.Engine, core.DefaultQueryOptions()
	norm, _, _ := referenceKey(t, workload.PortalSQL(0))
	run := func(i int) {
		t.Helper()
		if _, err := e.QueryOptsCtx(ctx, workload.PortalSQL(i), qo); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	run(1)
	if f := e.PreparedFragments(norm, qo); f != nil {
		t.Fatal("the compile that stored the plan, or its first reuse, prepared its fragments")
	}
	run(2)
	first := e.PreparedFragments(norm, qo)
	if first == nil {
		t.Fatal("the plan's second reuse left no prepared fragments")
	}
	if err := e.DefineView("unrelated", "SELECT id FROM crm.customers"); err != nil {
		t.Fatal(err)
	}
	run(3)
	if e.PreparedFragments(norm, qo) != first {
		t.Fatal("a write the plan did not read replaced its prepared fragments")
	}
	e.DropView("customer360")
	if e.PreparedFragments(norm, qo) != nil {
		t.Fatal("dropping a view the plan read left its prepared fragments cached")
	}
	if err := e.DefineView("customer360", `SELECT c.id AS id, c.name AS name, c.region AS region, c.segment AS segment,
		i.inv_id AS inv_id, i.amount AS amount, i.status AS status
		FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`); err != nil {
		t.Fatal(err)
	}
	run(4)
	run(5)
	run(6)
	if again := e.PreparedFragments(norm, qo); again == nil || again == first {
		t.Fatalf("the recompiled plan's fragments: %p, the retired plan's %p", again, first)
	}
}

// TestTemplateStorm: eight goroutines run one cached template — as
// literal statements and as a prepared statement — each with its own
// values, and every answer must equal its NoPlanCache twin's. Concurrent
// fetches of one fragment share its prepared state one at a time, and a
// fetch that finds it held runs unprepared. The storm runs on one node,
// and on a 2-node cluster where crm and billing have different owners,
// half the workers coordinating at each node: each coordinator prefetches
// the fragment its peer owns, and the peer runs it with the values it
// reads from the coordinator's query scratch. `make race-template`
// repeats it under the race detector.
func TestTemplateStorm(t *testing.T) {
	ctx := context.Background()
	crm, err := workload.CRMOf(120)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.Config{Nodes: 2}
	for o := cluster.Owners(ccfg, "crm", "billing"); o[0] == o[1]; o = cluster.Owners(ccfg, "crm", "billing") {
		ccfg.Seed++
	}
	cl, err := cluster.New(ccfg, func(int) (*core.Engine, error) { return crm.NewEngine() })
	if err != nil {
		t.Fatal(err)
	}
	const workers, runs = 8, 60
	want := make([]string, workers*runs)
	for i := range want {
		want[i] = answerOf(crm.Engine.QueryOptsCtx(ctx, workload.PortalSQL(i), core.QueryOptions{NoPlanCache: true}))
	}
	for _, nodes := range [][]*core.Engine{{crm.Engine}, {cl.Node(0).Engine(), cl.Node(1).Engine()}} {
		t.Run(fmt.Sprintf("%d-node", len(nodes)), func(t *testing.T) { templateStorm(t, nodes, workers, runs, want) })
	}
}

// templateStorm runs the storm of TestTemplateStorm with worker w
// coordinating at nodes[w%len(nodes)].
func templateStorm(t *testing.T, nodes []*core.Engine, workers, runs int, want []string) {
	ctx := context.Background()
	qo := core.DefaultQueryOptions()
	prepared := make([]*core.PreparedStatement, len(nodes))
	for i, e := range nodes {
		ps, err := e.PrepareOpts(ctx, portalTemplate, qo)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = ps
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			e, ps := nodes[w%len(nodes)], prepared[w%len(nodes)]
			for r := 0; r < runs; r++ {
				i := w*runs + r
				var res *core.Result
				var err error
				if r%2 == 0 {
					res, err = e.QueryOptsCtx(ctx, workload.PortalSQL(i), qo)
				} else {
					res, err = ps.ExecuteCtx(ctx, datum.NewInt(int64(1+i%97)), datum.NewInt(int64(100+50*(i%9))))
				}
				if got := answerOf(res, err); got != want[i] {
					errs <- fmt.Errorf("worker %d run %d: %q (%v), its NoPlanCache twin %q", w, r, got, err, want[i])
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

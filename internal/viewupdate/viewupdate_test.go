package viewupdate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/eai"
	"repro/internal/federation"
	"repro/internal/workload"
)

func employeeEngine(t *testing.T) (*core.Engine, *workload.EmployeeFederation) {
	t.Helper()
	fed, err := workload.BuildEmployees(workload.EmployeeConfig{Employees: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fed.Engine, fed
}

func TestGeneratedInsertWritesAllBaseTables(t *testing.T) {
	e, _ := employeeEngine(t)
	proc, err := GenerateInsert(context.Background(), e, "employee360", map[string]datum.Datum{
		"emp_id":   datum.NewInt(500),
		"name":     datum.NewString("Generated Hire"),
		"dept":     datum.NewString("legal"),
		"location": datum.NewString("LON"),
		"building": datum.NewString("B9"),
		"desk":     datum.NewString("D900"),
		"model":    datum.NewString("XPS13"),
		"serial":   datum.NewString("SN-GEN"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.Steps) != 3 {
		t.Fatalf("steps = %d (one per base table expected)", len(proc.Steps))
	}
	out := eai.NewEngine().Run(context.Background(), proc, nil)
	if !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	// The read view now shows the inserted logical row — §7's contract:
	// "change the database so the Read view is suitably updated."
	res, err := e.QueryCtx(context.Background(), "SELECT name, building, model FROM employee360 WHERE emp_id = 500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Generated Hire" {
		t.Errorf("view after insert = %v", res.Rows)
	}
}

func TestGeneratedInsertCompensatesOnFailure(t *testing.T) {
	e, _ := employeeEngine(t)
	proc, err := GenerateInsert(context.Background(), e, "employee360", map[string]datum.Datum{
		"emp_id":   datum.NewInt(501),
		"name":     datum.NewString("Doomed Hire"),
		"dept":     datum.NewString("legal"),
		"location": datum.NewString("LON"),
		"building": datum.NewString("B9"),
		"desk":     datum.NewString("D901"),
		"model":    datum.NewString("XPS13"),
		"serial":   datum.NewString("SN-DOOM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the last step.
	proc.Steps[len(proc.Steps)-1].Do = func(*eai.Context) error {
		return errors.New("injected failure")
	}
	out := eai.NewEngine().Run(context.Background(), proc, nil)
	if out.Completed {
		t.Fatal("run must fail")
	}
	res, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM hr.employees WHERE emp_id = 501")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("compensation must remove the partial insert from hr")
	}
}

// TestGeneratedInsertRunsUnderItsContext: the saga's writes run under the
// context GenerateInsert was given, so once it is cancelled the first step
// fails and no base table is written.
func TestGeneratedInsertRunsUnderItsContext(t *testing.T) {
	e, _ := employeeEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	proc, err := GenerateInsert(ctx, e, "employee360", map[string]datum.Datum{
		"emp_id":   datum.NewInt(503),
		"name":     datum.NewString("Cancelled Hire"),
		"dept":     datum.NewString("legal"),
		"location": datum.NewString("LON"),
		"building": datum.NewString("B9"),
		"desk":     datum.NewString("D903"),
		"model":    datum.NewString("XPS13"),
		"serial":   datum.NewString("SN-CANCEL"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	out := eai.NewEngine().Run(ctx, proc, nil)
	if out.Completed || !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("outcome = %+v, want a failure with context.Canceled", out)
	}
	res, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM employee360 WHERE emp_id = 503")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("a cancelled saga wrote its row")
	}
}

func TestGeneratedInsertValidatesNotNull(t *testing.T) {
	e, _ := employeeEngine(t)
	_, err := GenerateInsert(context.Background(), e, "employee360", map[string]datum.Datum{
		"emp_id": datum.NewInt(502),
		// name/dept/... missing but NOT NULL in the base schemas.
	})
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("missing NOT NULL values must be rejected, got %v", err)
	}
}

func TestGeneratedDeleteRemovesAndCompensationRestores(t *testing.T) {
	e, fed := employeeEngine(t)
	// Delete employee 7 across all systems.
	proc, err := GenerateDelete(context.Background(), e, "employee360", map[string]datum.Datum{
		"emp_id": datum.NewInt(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := eai.NewEngine().Run(context.Background(), proc, nil)
	if !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	res, _ := e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM employee360 WHERE emp_id = 7")
	if res.Rows[0][0].Int() != 0 {
		t.Error("employee must be gone from the view")
	}
	_ = fed

	// Now a delete whose final step fails: compensation must restore the
	// already-deleted rows.
	proc2, err := GenerateDelete(context.Background(), e, "employee360", map[string]datum.Datum{
		"emp_id": datum.NewInt(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	proc2.Steps[len(proc2.Steps)-1].Do = func(*eai.Context) error {
		return errors.New("injected failure")
	}
	out = eai.NewEngine().Run(context.Background(), proc2, nil)
	if out.Completed {
		t.Fatal("sabotaged delete must fail")
	}
	res, _ = e.QueryCtx(context.Background(), "SELECT COUNT(*) FROM employee360 WHERE emp_id = 8")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("compensation must restore employee 8, view rows = %v", res.Rows[0][0])
	}
}

func TestGenerateDeleteRefusesUnconstrainedTable(t *testing.T) {
	e, _ := employeeEngine(t)
	_, err := GenerateDelete(context.Background(), e, "employee360", map[string]datum.Datum{
		"building": datum.NewString("B1"), // constrains facilities only
	})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("unconstrained delete must be refused, got %v", err)
	}
}

func TestComputedColumnsRejected(t *testing.T) {
	e, _ := employeeEngine(t)
	if err := e.DefineView("shouty", "SELECT emp_id, UPPER(name) AS big_name FROM hr.employees"); err != nil {
		t.Fatal(err)
	}
	_, err := GenerateInsert(context.Background(), e, "shouty", map[string]datum.Datum{
		"emp_id": datum.NewInt(1), "big_name": datum.NewString("X"),
	})
	if err == nil || !strings.Contains(err.Error(), "computed") {
		t.Fatalf("computed view column must be rejected, got %v", err)
	}
}

func TestUnknownViewAndReadOnlySource(t *testing.T) {
	e, _ := employeeEngine(t)
	if _, err := GenerateInsert(context.Background(), e, "ghost", nil); err == nil {
		t.Error("unknown view must error")
	}
	// A view over a read-only source (CSV) cannot get update methods.
	csv := federation.NewCSVSource("files", nil)
	if _, err := csv.LoadCSV("t", "a,b\n1,x"); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(csv); err != nil {
		t.Fatal(err)
	}
	if err := e.DefineView("filev", "SELECT a, b FROM files.t"); err != nil {
		t.Fatal(err)
	}
	_, err := GenerateInsert(context.Background(), e, "filev", map[string]datum.Datum{"a": datum.NewInt(2)})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("read-only source must be rejected, got %v", err)
	}
}

// TestAnalyzeSharesViewsWithPlanners: view-update analysis plans the stored
// view itself, from the catalog snapshot every query planner unfolds it
// from. Planning must only read it, so analysis racing live queries over
// the same view (run this under -race) neither trips the detector nor
// changes what the view says.
func TestAnalyzeSharesViewsWithPlanners(t *testing.T) {
	e, _ := employeeEngine(t)
	const def = "SELECT dept, COUNT(*) AS n FROM hr.employees GROUP BY dept ORDER BY COUNT(*) DESC"
	if err := e.DefineView("dept_sizes", def); err != nil {
		t.Fatal(err)
	}
	v, _ := e.Catalog().View("dept_sizes")
	want := v.Query.SQL()
	qo := core.QueryOptions{NoPlanCache: true} // every query unfolds the view afresh
	ref, err := e.QueryOptsCtx(context.Background(), "SELECT dept, n FROM dept_sizes", qo)
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 4, 25
	errs := make(chan error, 2*workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := e.QueryOptsCtx(context.Background(), "SELECT dept, n FROM dept_sizes", qo)
				if err != nil {
					errs <- err
					continue
				}
				if fmt.Sprint(res.Rows) != fmt.Sprint(ref.Rows) {
					errs <- fmt.Errorf("query over the view returned %v, want %v", res.Rows, ref.Rows)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// The view's COUNT(*) column is computed: analysis plans
				// the view, then refuses it.
				_, err := GenerateDelete(context.Background(), e, "dept_sizes", map[string]datum.Datum{"dept": datum.NewString("legal")})
				if err == nil || !strings.Contains(err.Error(), "computed") {
					errs <- fmt.Errorf("delete through an aggregate view: got %v, want a computed-column refusal", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := v.Query.SQL(); got != want {
		t.Errorf("planning rewrote the stored view:\n got %s\nwant %s", got, want)
	}
}

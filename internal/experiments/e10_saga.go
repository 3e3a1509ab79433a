package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/datum"
	"repro/internal/eai"
	"repro/internal/federation"
	"repro/internal/workload"
)

// RunE10 reproduces §4's (Carey) update-side argument: "'Insert employee
// into company' is really a business process ... demanding long-running
// transaction technology and the availability of compensation capabilities
// in the event of a transaction step failure." The onboarding process runs
// with a failure injected at each step, under the saga engine and under the
// naive multi-write a virtual-database update amounts to; the table reports
// how many backend systems are left inconsistent.
func RunE10(ctx context.Context, scale Scale) (Table, error) {
	t := Table{
		ID:            "E10",
		Title:         "Employee onboarding with injected failures: saga vs naive multi-write",
		Claim:         `§4: "Such an update clearly must not be a traditional transaction, instead demanding long-running transaction technology and the availability of compensation capabilities in the event of a transaction step failure"`,
		ExpectedShape: "saga leaves zero residue at every failure point; naive leaves k-1 partially-updated systems when step k fails",
		Columns:       []string{"failAtStep", "strategy", "systemsWritten", "residueAfterFailure", "compensated"},
	}
	steps := []string{"hr", "facilities", "it"}
	for failAt := 0; failAt <= len(steps); failAt++ {
		for _, strategy := range []string{"saga", "naive"} {
			fed, err := workload.BuildEmployees(workload.EmployeeConfig{Employees: 10, Seed: 3})
			if err != nil {
				return t, err
			}
			const newID = int64(9999)
			proc := onboardingProcess(ctx, fed, newID, failAt)
			var out eai.Outcome
			if strategy == "saga" {
				out = eai.NewEngine().Run(ctx, proc, nil)
			} else {
				out = eai.RunNaive(ctx, proc, nil)
			}
			residue := countResidue(fed, newID)
			failLabel := "none"
			if failAt > 0 {
				failLabel = steps[failAt-1]
			}
			if failAt == 0 && (!out.Completed || residue != 3) {
				return t, fmt.Errorf("E10: failure-free run must write all 3 systems (completed=%v residue=%d)", out.Completed, residue)
			}
			t.Rows = append(t.Rows, []string{
				failLabel, strategy,
				fmt.Sprint(out.StepsRun),
				fmt.Sprint(chooseResidue(failAt, residue)),
				fmt.Sprint(len(out.Compensated)),
			})
		}
	}
	t.Notes = "residueAfterFailure counts backend systems holding a partial employee record after the process ends (failAt=none rows show the success path: 3 systems written is correct, not residue)"
	return t, nil
}

// chooseResidue reports residue only for failing runs; a completed run's
// writes are the intended outcome.
func chooseResidue(failAt, residue int) int {
	if failAt == 0 {
		return 0
	}
	return residue
}

// onboardingProcess builds the three-system insert with compensations;
// failAt (1-based) injects a failure in that step, 0 disables injection.
// Every write its steps make runs under ctx.
func onboardingProcess(ctx context.Context, fed *workload.EmployeeFederation, id int64, failAt int) *eai.Process {
	mkRow := func(vals ...datum.Datum) datum.Row { return vals }
	idD := datum.NewInt(id)
	hasID := func(r datum.Row) bool { return r[0].Int() == id }
	return &eai.Process{
		Name: "onboard-employee",
		Steps: []eai.Step{
			{
				Name: "hr",
				Do: func(*eai.Context) error {
					if failAt == 1 {
						return errors.New("hr system rejected the record")
					}
					return fed.HR.Insert(ctx, "employees", mkRow(idD,
						datum.NewString("New Hire"), datum.NewString("sales"), datum.NewString("SEA")))
				},
				Compensate: func(*eai.Context) error {
					_, err := fed.HR.Delete(ctx, "employees", hasID)
					return err
				},
			},
			{
				Name: "facilities",
				Do: func(*eai.Context) error {
					if failAt == 2 {
						return errors.New("no desks available")
					}
					return fed.Facilities.Insert(ctx, "offices", mkRow(idD,
						datum.NewString("B1"), datum.NewString("D001")))
				},
				Compensate: func(*eai.Context) error {
					_, err := fed.Facilities.Delete(ctx, "offices", hasID)
					return err
				},
			},
			{
				Name: "it",
				Do: func(*eai.Context) error {
					if failAt == 3 {
						return errors.New("laptop order failed approval")
					}
					return fed.IT.Insert(ctx, "assets", mkRow(idD,
						datum.NewString("X1"), datum.NewString("SN-NEW")))
				},
				Compensate: func(*eai.Context) error {
					_, err := fed.IT.Delete(ctx, "assets", hasID)
					return err
				},
			},
		},
	}
}

// countResidue counts backend systems holding any record for the id.
func countResidue(fed *workload.EmployeeFederation, id int64) int {
	count := 0
	for _, probe := range []struct {
		src   *federation.RelationalSource
		table string
	}{
		{fed.HR, "employees"},
		{fed.Facilities, "offices"},
		{fed.IT, "assets"},
	} {
		t, ok := probe.src.Table(probe.table)
		if !ok {
			continue
		}
		found := false
		t.Scan(func(r datum.Row) bool {
			if r[0].Int() == id {
				found = true
				return false
			}
			return true
		})
		if found {
			count++
		}
	}
	return count
}

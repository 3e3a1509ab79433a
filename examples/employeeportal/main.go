// Employee portal: §4's (Carey) worked example end to end. Reads go through
// EII — the employee360 view answers by-id, by-department and by-model
// queries with optimizer-chosen plans. Updates go through EAI — the
// "insert employee into company" business process runs as a saga with
// compensation, and an injected failure shows why a virtual-database update
// is the wrong tool.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/datum"
	"repro/internal/eai"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	fed, err := workload.BuildEmployees(workload.DefaultEmployees())
	if err != nil {
		log.Fatal(err)
	}
	engine := fed.Engine

	// --- Read side: one view, many access paths.
	fmt.Println("--- EII reads: one view, optimizer adapts per access path ---")
	for _, q := range []string{
		"SELECT name, dept, building, model FROM employee360 WHERE emp_id = 42",
		"SELECT COUNT(*) FROM employee360 WHERE dept = 'engineering'",
		"SELECT name FROM employee360 WHERE model = 'X1' AND location = 'SEA' ORDER BY name LIMIT 5",
	} {
		res, err := engine.QueryCtx(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-90.90s -> %d rows, %s shipped\n", q, len(res.Rows), fmt.Sprint(res.Network.BytesShipped)+"B")
	}

	// --- Update side: onboarding as a long-running process.
	fmt.Println("\n--- EAI update: onboarding saga ---")
	procEngine := eai.NewEngine()
	newID := datum.NewInt(100001)
	okProc := onboarding(ctx, fed, newID, false)
	out := procEngine.Run(ctx, okProc, nil)
	fmt.Printf("success path: completed=%v steps=%d\n", out.Completed, out.StepsRun)

	// Now the IT step fails: facilities and HR must be compensated.
	fmt.Println("\n--- EAI update with failure: compensation unwinds ---")
	failID := datum.NewInt(100002)
	badProc := onboarding(ctx, fed, failID, true)
	out = procEngine.Run(ctx, badProc, nil)
	fmt.Printf("failure path: completed=%v err=%v\n", out.Completed, out.Err)
	fmt.Printf("compensated (reverse order): %v\n", out.Compensated)

	// The mediated view shows the saga left no partial employee behind.
	res, err := engine.QueryCtx(ctx, "SELECT COUNT(*) FROM hr.employees WHERE emp_id = 100002")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("residual rows for failed onboarding: %s\n", res.Rows[0][0].Display())
}

func onboarding(ctx context.Context, fed *workload.EmployeeFederation, id datum.Datum, failIT bool) *eai.Process {
	hasID := func(r datum.Row) bool { return r[0].Int() == id.Int() }
	return &eai.Process{
		Name: "onboard-employee",
		Steps: []eai.Step{
			{
				Name: "hr-record",
				Do: func(*eai.Context) error {
					return fed.HR.Insert(ctx, "employees", datum.Row{id,
						datum.NewString("New Hire"), datum.NewString("sales"), datum.NewString("NYC")})
				},
				Compensate: func(*eai.Context) error {
					_, err := fed.HR.Delete(ctx, "employees", hasID)
					return err
				},
			},
			{
				Name: "assign-office",
				Do: func(*eai.Context) error {
					return fed.Facilities.Insert(ctx, "offices", datum.Row{id,
						datum.NewString("B2"), datum.NewString("D117")})
				},
				Compensate: func(*eai.Context) error {
					_, err := fed.Facilities.Delete(ctx, "offices", hasID)
					return err
				},
			},
			{
				Name:    "order-laptop",
				Retries: 1,
				Do: func(*eai.Context) error {
					if failIT {
						return errors.New("procurement approval denied")
					}
					return fed.IT.Insert(ctx, "assets", datum.Row{id,
						datum.NewString("M3Pro"), datum.NewString("SN-ONBOARD")})
				},
				Compensate: func(*eai.Context) error {
					_, err := fed.IT.Delete(ctx, "assets", hasID)
					return err
				},
			},
		},
	}
}

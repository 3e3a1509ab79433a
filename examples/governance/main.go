// Governance: the §7 (Rosenthal) agenda end to end — "it's the metadata,
// stupid". A federation gets: (1) a data service agreement with automated
// violation detection, (2) change-notification feeds generated from a view
// definition, (3) an update method generated from the same view, and (4) a
// record-correlation table joining two systems that share no reliable key.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/datum"
	"repro/internal/dsa"
	"repro/internal/eai"
	"repro/internal/linkage"
	"repro/internal/storage"
	"repro/internal/viewupdate"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	fed, err := workload.BuildEmployees(workload.DefaultEmployees())
	if err != nil {
		log.Fatal(err)
	}
	engine := fed.Engine

	// --- 1. A data service agreement over the HR feed.
	fmt.Println("--- data service agreement: hr feed ---")
	agreement := &dsa.Agreement{
		Name:     "hr-to-portal",
		Provider: "hr",
		Consumer: "employee-portal",
		Obligations: []dsa.Obligation{
			dsa.MinRows{Table: "employees", Min: 100},
			dsa.SchemaStable{Table: "employees", Columns: []string{"emp_id", "name", "dept"}},
			dsa.MustNotify{Table: "employees"},
			dsa.Available{Table: "employees", MaxLatency: time.Second},
		},
		ConsumerTerms: []dsa.ConsumerTerm{
			{Kind: "purpose", Text: "employee self-service only"},
		},
	}
	monitor := dsa.NewMonitor(fed.HR, fed.Facilities, fed.IT)
	if v := monitor.Check(ctx, agreement); len(v) == 0 {
		fmt.Println("all obligations satisfied")
	} else {
		for _, violation := range v {
			fmt.Println("VIOLATION:", violation)
		}
	}

	// --- 2. A change feed generated from the view definition.
	fmt.Println("\n--- generated notify: employee360 change feed ---")
	changes := 0
	cancel, err := engine.DependencySubscribe(ctx, "SELECT * FROM employee360",
		func(c storage.Change) {
			changes++
			fmt.Printf("change #%d: %s %s (%d rows)\n", changes, c.Table, c.Kind, c.Rows)
		})
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()

	// --- 3. An update method generated from the same view definition.
	fmt.Println("\n--- generated update: insert through the view ---")
	proc, err := viewupdate.GenerateInsert(ctx, engine, "employee360", map[string]datum.Datum{
		"emp_id":   datum.NewInt(9001),
		"name":     datum.NewString("Gen D. Rated"),
		"dept":     datum.NewString("engineering"),
		"location": datum.NewString("SEA"),
		"building": datum.NewString("B3"),
		"desk":     datum.NewString("D042"),
		"model":    datum.NewString("M3Pro"),
		"serial":   datum.NewString("SN-GOV-1"),
	})
	if err != nil {
		log.Fatal(err)
	}
	out := eai.NewEngine().Run(ctx, proc, nil)
	fmt.Printf("saga completed=%v steps=%d (the change feed above fired per write)\n",
		out.Completed, out.StepsRun)
	res, err := engine.QueryCtx(ctx, "SELECT name, dept, model FROM employee360 WHERE emp_id = 9001")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view now shows: %s / %s / %s\n",
		res.Rows[0][0].Display(), res.Rows[0][1].Display(), res.Rows[0][2].Display())

	// --- 4. Correlating a partner system with no shared key.
	fmt.Println("\n--- record correlation: badge system with dirty names ---")
	var left, right []linkage.Record
	res, err = engine.QueryCtx(ctx, "SELECT emp_id, name FROM hr.employees LIMIT 10")
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range res.Rows {
		left = append(left, linkage.Record{Key: r[0], Text: r[1].Str()})
		// The badge system wrote names by hand.
		right = append(right, linkage.Record{
			Key:  datum.NewInt(int64(7000 + i)),
			Text: r[1].Str() + ",", // punctuation noise
		})
	}
	ix := linkage.Build(left, right, linkage.DefaultConfig())
	if err := engine.DefineCorrelation("hr2badges", ix); err != nil {
		log.Fatal(err)
	}
	res, err = engine.QueryCtx(ctx, `SELECT COUNT(*) FROM hr.employees e
		JOIN correlations.hr2badges m ON e.emp_id = m.left_key`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("correlated %s employees to badge records through the stored join index\n",
		res.Rows[0][0].Display())
}

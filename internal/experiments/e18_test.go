package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestE18BloomWireReductionAndScaling(t *testing.T) {
	tab, err := RunE18(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	var shipRows, scaleRows [][]string
	for _, row := range tab.Rows {
		switch row[0] {
		case "ship":
			shipRows = append(shipRows, row)
		case "scale":
			scaleRows = append(scaleRows, row)
		}
	}
	// Ship rows come in triples per size: full-relation, key-list, bloom.
	if len(shipRows)%3 != 0 || len(shipRows) == 0 {
		t.Fatalf("ship rows = %d, want a positive multiple of 3", len(shipRows))
	}
	for i := 0; i+2 < len(shipRows); i += 3 {
		full, keylist, blm := shipRows[i], shipRows[i+1], shipRows[i+2]
		size := full[1]
		fullWire := cell(t, full[5])
		keyWire := cell(t, keylist[5])
		bloomWire := cell(t, blm[5])
		if full[3] != keylist[3] || full[3] != blm[3] {
			t.Errorf("size %s: shipping mode changed row counts: %s/%s/%s", size, full[3], keylist[3], blm[3])
		}
		if keyWire >= fullWire {
			t.Errorf("size %s: key-list %v >= full-relation %v inter-node bytes", size, keyWire, fullWire)
		}
		if bloomWire >= fullWire {
			t.Errorf("size %s: bloom %v >= full-relation %v inter-node bytes", size, bloomWire, fullWire)
		}
		// The headline claim at the largest Quick size (probe past the
		// IN-list cap): bloom ships >= 3x less than full relations and no
		// more than the exact key list.
		if size == "4000" || size == "8000" {
			if bloomWire*3 > fullWire {
				t.Errorf("size %s: bloom %v vs full %v: reduction below 3x", size, bloomWire, fullWire)
			}
			if bloomWire > keyWire {
				t.Errorf("size %s: bloom %v exceeds key-list %v past the cap", size, bloomWire, keyWire)
			}
		}
	}
	// Scale rows: completed throughput must increase monotonically with
	// node count. Wall-clock-dependent, so not asserted under the race
	// detector, whose instrumentation moves the bottleneck to the CPU.
	if len(scaleRows) < 3 {
		t.Fatalf("scale rows = %d, want >= 3", len(scaleRows))
	}
	if raceDetectorOn {
		t.Log("race detector on: skipping throughput-scaling assertions")
		return
	}
	prev := -1.0
	for _, row := range scaleRows {
		done := cell(t, row[3])
		if done <= prev {
			t.Errorf("nodes=%s completed %v, not above previous %v — throughput must scale", row[1], done, prev)
		}
		prev = done
	}
}

// TestE1SemiJoinWireNeverWorse is the E18 satellite guard for the old
// semi-join cliff: past plan.DefaultSemiJoinKeyCap probe keys the planner
// used to abandon reduction, so E1's 8000-customer cell silently degraded
// to plain pushdown. With bloom shipping the semi-join strategy must move
// no more wire bytes than pushdown at every size.
func TestE1SemiJoinWireNeverWorse(t *testing.T) {
	query := `SELECT c.name, i.amount FROM crm.customers c
		JOIN billing.invoices i ON c.id = i.cust_id
		WHERE c.region = 'west' AND i.status = 'overdue' AND i.amount > 800`
	for _, n := range []int{100, 500, 2000, 8000} {
		cfg := workload.DefaultCRM()
		cfg.Customers = n
		cfg.LinkLatency = 2 * time.Millisecond
		fed, err := workload.BuildCRM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fed.Engine.ResetMetrics()
		push, err := fed.Engine.QueryOptsCtx(context.Background(), query, core.QueryOptions{NoSemiJoin: true})
		if err != nil {
			t.Fatal(err)
		}
		fed.Engine.ResetMetrics()
		semi, err := fed.Engine.QueryOptsCtx(context.Background(), query, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(push.Rows) != len(semi.Rows) {
			t.Fatalf("customers=%d: semi-join changed results: %d vs %d rows", n, len(push.Rows), len(semi.Rows))
		}
		if semi.Network.WireBytes > push.Network.WireBytes {
			t.Errorf("customers=%d: semi-join wire %dB > pushdown %dB — the key-cap cliff is back",
				n, semi.Network.WireBytes, push.Network.WireBytes)
		}
	}
}

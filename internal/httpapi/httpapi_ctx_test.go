package httpapi

// E15 endpoint tests: request-scoped tracing (?trace=1), the in-flight
// query registry (/queries, /queries/cancel), and the 499 mapping for
// queries killed by disconnect, cancel handle, or deadline.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/workload"
)

// slowServer serves a fan-out federation over links that block in
// wall-clock time (RealSleep), so cancellations land mid-query.
func slowServer(t *testing.T, n int, latency time.Duration) (*httptest.Server, *core.Engine) {
	t.Helper()
	e := core.New()
	var union []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		link := netsim.NewLink(latency, 1e6, 1)
		link.RealSleep = true
		src := federation.NewRelationalSource(name, federation.FullSQL(), link)
		tab, err := src.CreateTable(schema.MustTable("t", []schema.Column{
			{Name: "v", Kind: datum.KindInt},
		}))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 32; r++ {
			if err := tab.Insert(datum.Row{datum.NewInt(int64(i*32 + r))}); err != nil {
				t.Fatal(err)
			}
		}
		src.RefreshStats()
		if err := e.Register(src); err != nil {
			t.Fatal(err)
		}
		union = append(union, fmt.Sprintf("SELECT v FROM %s.t", name))
	}
	if err := e.DefineView("wide", strings.Join(union, " UNION ALL ")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return srv, e
}

// TestQueryTraceParam checks ?trace=1 attaches the span tree: a fetch
// span per source with rows, bytes, and non-zero virtual link time.
func TestQueryTraceParam(t *testing.T) {
	srv := server(t)
	resp, body := post(t, srv.URL+"/query?trace=1", QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM customer360 GROUP BY region ORDER BY region",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.QueryID == 0 {
		t.Error("traced response missing queryId")
	}
	if qr.Trace == nil {
		t.Fatalf("no trace in response: %s", body)
	}
	if qr.Trace.Name != "query" {
		t.Errorf("trace root = %q, want query", qr.Trace.Name)
	}
	fetches := qr.Trace.Fetches()
	if len(fetches) == 0 {
		t.Fatal("trace has no fetch spans")
	}
	for _, f := range fetches {
		if f.Source == "" || f.Rows <= 0 || f.Bytes <= 0 {
			t.Errorf("fetch span incomplete: %+v", f)
		}
		if f.SimTime <= 0 {
			t.Errorf("fetch %s: virtual link time = %v, want > 0", f.Source, f.SimTime)
		}
	}

	// Without the flag the trace stays off the wire.
	_, body = post(t, srv.URL+"/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM customer360",
	})
	var plain QueryResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced request returned a trace")
	}
}

// TestQueriesListAndCancel runs a slow query, finds it on GET /queries,
// kills it through POST /queries/cancel, and checks the query's own
// response comes back 499 with the canceled flag set.
func TestQueriesListAndCancel(t *testing.T) {
	srv, _ := slowServer(t, 8, 20*time.Millisecond)

	type reply struct {
		status int
		body   []byte
	}
	done := make(chan reply, 1)
	go func() {
		resp, body := post(t, srv.URL+"/query", QueryRequest{
			SQL: "SELECT COUNT(*), SUM(v) FROM wide",
		})
		done <- reply{resp.StatusCode, body}
	}()

	// Poll the registry until the query shows up with its cancel handle.
	var target InflightQuery
	deadline := time.Now().Add(5 * time.Second)
	for target.ID == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared on /queries")
		}
		r, err := http.Get(srv.URL + "/queries")
		if err != nil {
			t.Fatal(err)
		}
		var list QueriesResponse
		if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		for _, q := range list.Queries {
			if strings.Contains(q.SQL, "FROM wide") {
				target = q
			}
		}
		time.Sleep(time.Millisecond)
	}
	if target.Elapsed == "" {
		t.Errorf("in-flight query missing elapsed: %+v", target)
	}

	r, err := http.Post(fmt.Sprintf("%s/queries/cancel?id=%d", srv.URL, target.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CancelResponse
	if err := json.NewDecoder(r.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	got := <-done
	if cr.Canceled {
		if got.status != StatusClientClosedRequest {
			t.Fatalf("cancelled query status = %d, want %d: %s", got.status, StatusClientClosedRequest, got.body)
		}
		var eb errorBody
		if err := json.Unmarshal(got.body, &eb); err != nil {
			t.Fatal(err)
		}
		if !eb.Canceled || eb.Error == "" {
			t.Errorf("error body = %+v, want canceled with message", eb)
		}
	} else if got.status != http.StatusOK {
		// The query won the race; it must then have completed normally.
		t.Fatalf("uncancelled query status = %d: %s", got.status, got.body)
	}

	// Unknown handles answer canceled=false, not an error.
	r, err = http.Post(srv.URL+"/queries/cancel?id=999999", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if cr.Canceled {
		t.Error("cancelling an unknown id reported canceled=true")
	}
	r, err = http.Post(srv.URL+"/queries/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("cancel without id: status = %d", r.StatusCode)
	}
}

// TestDeadlineAnswers499 sets a request deadline far shorter than the
// blocking link latency: the query dies on context.DeadlineExceeded and
// the response maps it to 499 with the canceled flag.
func TestDeadlineAnswers499(t *testing.T) {
	srv, _ := slowServer(t, 8, 20*time.Millisecond)
	resp, body := post(t, srv.URL+"/query", QueryRequest{
		SQL:        "SELECT COUNT(*) FROM wide",
		DeadlineMS: 2,
	})
	if resp.StatusCode != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", resp.StatusCode, StatusClientClosedRequest, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if !eb.Canceled {
		t.Errorf("error body = %+v, want canceled", eb)
	}
}

// TestClientDisconnectCancelsQuery drops the client mid-query and checks
// the server-side query observes r.Context() and leaves the in-flight
// registry — the disconnect actually propagated to the engine.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	srv, engine := slowServer(t, 8, 20*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/query",
		strings.NewReader(`{"sql": "SELECT COUNT(*), SUM(v) FROM wide"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for len(engine.InflightQueries()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never registered in flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-errc

	for time.Now().Before(deadline) {
		if len(engine.InflightQueries()) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("query still in flight after client disconnect: %d", len(engine.InflightQueries()))
}

// TestCancelPreservesFaultLedger cancels an AllowPartial query under
// fault injection with wall-clock retry backoff: the 499 body must carry
// whatever source-error accounting the engine had collected.
func TestCancelPreservesFaultLedger(t *testing.T) {
	srv, engine := slowServer(t, 6, 10*time.Millisecond)
	for i, name := range engine.Sources() {
		src, _ := engine.Source(name)
		src.Link().SetFaultProfile(&netsim.FaultProfile{Seed: int64(11 + i), FailureRate: 0.9})
	}

	type reply struct {
		status int
		body   []byte
	}
	done := make(chan reply, 1)
	go func() {
		resp, body := post(t, srv.URL+"/query", QueryRequest{
			SQL:           "SELECT COUNT(*) FROM wide",
			AllowPartial:  true,
			RetryAttempts: 4,
		})
		done <- reply{resp.StatusCode, body}
	}()

	deadline := time.Now().Add(5 * time.Second)
	var id uint64
	for id == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never registered in flight")
		}
		for _, q := range engine.InflightQueries() {
			id = q.ID()
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let some fetch attempts fail first
	engine.CancelQuery(id)

	got := <-done
	if got.status == http.StatusOK {
		return // completed before the cancel landed; valid race outcome
	}
	if got.status != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", got.status, StatusClientClosedRequest, got.body)
	}
	var eb errorBody
	if err := json.Unmarshal(got.body, &eb); err != nil {
		t.Fatal(err)
	}
	if !eb.Canceled {
		t.Errorf("error body = %+v, want canceled", eb)
	}
	// The ledger fields decode without loss when present; with a 0.9
	// failure rate across six sources at least one attempt usually failed
	// before the cancel, but the race makes it advisory, not asserted.
	t.Logf("ledger at cancel: sourceErrors=%v retries=%v partial=%v",
		eb.SourceErrors, eb.Retries, eb.Partial)
}

// TestExplainHonorsRequestContext: explaining a statement with an
// IN (SELECT ...) plans the subquery and runs nothing; a request whose
// context is already cancelled answers 499, and no source is contacted.
func TestExplainHonorsRequestContext(t *testing.T) {
	cfg := workload.DefaultCRM()
	cfg.Customers = 60
	fed, err := workload.BuildCRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := fed.Engine
	trips := func() int64 {
		var n int64
		for _, name := range e.Sources() {
			src, _ := e.Source(name)
			n += src.Link().Metrics().RoundTrips
		}
		return n
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(QueryRequest{
		SQL: "SELECT name FROM crm.customers WHERE id IN (SELECT cust_id FROM billing.invoices WHERE amount > 500)",
	})
	req := httptest.NewRequest(http.MethodPost, "/explain", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	before := trips()
	NewHandler(e).ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if !eb.Canceled || !strings.Contains(eb.Error, context.Canceled.Error()) {
		t.Errorf("error body = %+v, want a cancellation", eb)
	}
	if after := trips(); after != before {
		t.Errorf("%d source round trips under a cancelled request context", after-before)
	}
}

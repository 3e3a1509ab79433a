// Package httpapi exposes the mediator over HTTP — the form the paper's
// EII products actually shipped in (servers answering federated queries
// for portals and dashboards). JSON in, JSON out, stdlib only.
//
// Endpoints:
//
//	POST /query    {"sql": "...", "params": [...]}  -> rows + network accounting
//	POST /prepare  {"sql": "..."}                   -> statement handle for /query {"id": ...}
//	POST /explain  {"sql": "..."}                   -> optimized plan + pushdown SQL
//	GET  /catalog                                   -> sources, tables, views
//	GET  /healthz                                   -> breaker states + plan-cache stats
//	GET  /queries                                   -> in-flight queries (id, sql, elapsed)
//	POST /queries/cancel?id=N                       -> cancel an in-flight query
//
// Every query, prepare and explain runs under the request's context: a
// client disconnect cancels the whole query tree (exchange workers,
// remote fetches, retry backoffs), and a cancelled or deadline-exceeded
// request answers with status 499 (client closed request) carrying
// whatever partial-result accounting the engine collected. `POST /query?trace=1` (or
// {"trace": true}) attaches the query's span tree to the response.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/plancache"
)

// QueryRequest is the body of /query and /explain.
type QueryRequest struct {
	// SQL is the statement text; it may contain ? or $n placeholders
	// bound by Params. Mutually exclusive with ID.
	SQL string `json:"sql"`
	// ID executes a statement previously registered via /prepare.
	ID string `json:"id,omitempty"`
	// Params binds placeholder values ($1 = params[0], ...). JSON
	// numbers with no fractional part bind as integers.
	Params []any `json:"params,omitempty"`
	// Naive runs the query without any optimization (baseline mode).
	Naive bool `json:"naive,omitempty"`
	// NoPlanCache compiles fresh, bypassing the plan cache.
	NoPlanCache bool `json:"noPlanCache,omitempty"`
	// AllowPartial answers from the surviving sources when one is down.
	AllowPartial bool `json:"allowPartial,omitempty"`
	// RetryAttempts is the total tries per remote fetch (0/1: no retry).
	RetryAttempts int `json:"retryAttempts,omitempty"`
	// DeadlineMS bounds query execution in milliseconds.
	DeadlineMS int `json:"deadlineMs,omitempty"`
	// Parallelism caps the intra-query worker pool (0 = GOMAXPROCS,
	// 1 = sequential).
	Parallelism int `json:"parallelism,omitempty"`
	// BatchSize overrides the executor's rows-per-batch (0 = default).
	BatchSize int `json:"batchSize,omitempty"`
	// Trace attaches the query-scoped span tree to the response (also
	// settable per request with the ?trace=1 URL parameter).
	Trace bool `json:"trace,omitempty"`
	// NoAdaptive disables adaptive query processing for this request:
	// planning ignores cardinality feedback and no mid-query re-plan
	// fires. Adaptive is on by default (naive mode also turns it off).
	NoAdaptive bool `json:"noAdaptive,omitempty"`
	// Explain attaches the executed plan annotated with estimated-vs-
	// observed rows per operator (also settable with ?explain=1).
	Explain bool `json:"explain,omitempty"`
	// Tenant names the admission bucket the query runs under. The
	// X-EII-Tenant request header takes precedence; absent both, the
	// query runs as the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
}

// TenantHeader is the request header naming the admission tenant.
const TenantHeader = "X-EII-Tenant"

// PrepareResponse is the body returned by /prepare.
type PrepareResponse struct {
	// ID is the statement handle to pass back in QueryRequest.ID.
	ID string `json:"id"`
	// SQL is the normalized statement text.
	SQL string `json:"sql"`
	// NumParams is how many parameter values execution requires.
	NumParams int `json:"numParams"`
}

// QueryResponse is the body returned by /query.
type QueryResponse struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Network struct {
		RoundTrips   int64  `json:"roundTrips"`
		BytesShipped int64  `json:"bytesShipped"`
		WireBytes    int64  `json:"wireBytes"`
		SimTime      string `json:"simTime"`
	} `json:"network"`
	Elapsed string `json:"elapsed"`
	// Partial is true when failed sources were dropped from the answer.
	Partial bool `json:"partial,omitempty"`
	// SkippedSources names the sources missing from a partial answer.
	SkippedSources []string `json:"skippedSources,omitempty"`
	// ReplicaSources names failed sources answered from a replica.
	ReplicaSources []string `json:"replicaSources,omitempty"`
	// SourceErrors counts failed fetch attempts per source.
	SourceErrors map[string]int `json:"sourceErrors,omitempty"`
	// Retries counts retry attempts per source.
	Retries map[string]int `json:"retries,omitempty"`
	// PlanTime is how long planning took (cache lookup + compile + bind).
	PlanTime string `json:"planTime"`
	// CacheHit is true when the plan came from the plan cache.
	CacheHit bool `json:"cacheHit"`
	// CatalogVersion is the catalog version the query planned against.
	CatalogVersion uint64 `json:"catalogVersion"`
	// ExecParallelism is the widest worker pool any operator ran with.
	ExecParallelism int `json:"execParallelism"`
	// BatchesProcessed counts execution batches across all operators.
	BatchesProcessed int64 `json:"batchesProcessed"`
	// QueryID is the engine-assigned in-flight query ID.
	QueryID uint64 `json:"queryId,omitempty"`
	// Trace is the query's span tree, present when the request asked for
	// it (?trace=1 or {"trace": true}).
	Trace *exec.Span `json:"trace,omitempty"`
	// Tenant is the admission bucket the query ran under (present when
	// admission control is enabled).
	Tenant string `json:"tenant,omitempty"`
	// QueueTime is how long the query waited for admission.
	QueueTime string `json:"queueTime,omitempty"`
	// ReplanCount is how many times the query re-optimized mid-execution
	// after a cardinality tripwire.
	ReplanCount int `json:"replanCount,omitempty"`
	// EstimateErrors counts operators whose actual cardinality missed the
	// estimate by 10x or more (present for adaptive/explain queries).
	EstimateErrors int `json:"estimateErrors,omitempty"`
	// Explain is the executed plan annotated with estimated-vs-observed
	// rows, present when the request asked for it (?explain=1 or
	// {"explain": true}).
	Explain string `json:"explain,omitempty"`
}

// QueriesResponse is the body returned by GET /queries.
type QueriesResponse struct {
	Queries []InflightQuery `json:"queries"`
}

// InflightQuery describes one running query: the cancel handle is its ID,
// accepted by POST /queries/cancel.
type InflightQuery struct {
	ID      uint64 `json:"id"`
	SQL     string `json:"sql,omitempty"`
	Elapsed string `json:"elapsed"`
}

// CancelResponse is the body returned by POST /queries/cancel.
type CancelResponse struct {
	// Canceled is true when the ID named a running query.
	Canceled bool `json:"canceled"`
}

// StatusClientClosedRequest is the nginx-convention status for a query
// aborted by cancellation (client disconnect, /queries/cancel, deadline).
const StatusClientClosedRequest = 499

// HealthResponse is the body returned by /healthz.
type HealthResponse struct {
	Status string `json:"status"` // "ok", or "degraded" when a breaker is not closed
	// Sources maps each registered source to its circuit-breaker state
	// (closed / open / half-open).
	Sources map[string]string `json:"sources"`
	// PlanCache reports the plan cache's effectiveness counters.
	PlanCache plancache.Stats `json:"planCache"`
	// CatalogVersion is the current catalog version.
	CatalogVersion uint64 `json:"catalogVersion"`
	// Admission is the per-tenant admission accounting (admitted, queued,
	// shed, memory in use), present when admission control is enabled.
	Admission []core.TenantAdmissionStats `json:"admission,omitempty"`
}

// RequestLogEntry describes one completed /query request for the server's
// access log: what ran, whether planning was served from the cache, and
// how the time split between planning and execution.
type RequestLogEntry struct {
	SQL      string
	CacheHit bool
	PlanTime time.Duration
	ExecTime time.Duration
	Rows     int
	Err      error
}

// ExplainResponse is the body returned by /explain.
type ExplainResponse struct {
	Plan string `json:"plan"`
}

// CatalogResponse is the body returned by /catalog.
type CatalogResponse struct {
	Sources []SourceInfo `json:"sources"`
	Views   []ViewInfo   `json:"views"`
}

// SourceInfo describes one registered source.
type SourceInfo struct {
	Name   string      `json:"name"`
	Tables []TableInfo `json:"tables"`
}

// TableInfo describes one source table.
type TableInfo struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    int64    `json:"rows"`
}

// ViewInfo describes one mediated view.
type ViewInfo struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// errorBody is the JSON error envelope. A cancelled or failed query that
// produced partial accounting (fault ledger, retries) carries it here so
// the client can see what the query had reached when it died.
type errorBody struct {
	Error string `json:"error"`
	// Canceled is true when the query was aborted by its context —
	// client disconnect, /queries/cancel, or deadline.
	Canceled bool `json:"canceled,omitempty"`
	// Partial and the source maps mirror QueryResponse for queries that
	// failed after collecting fault accounting (AllowPartial runs).
	Partial        bool           `json:"partial,omitempty"`
	SkippedSources []string       `json:"skippedSources,omitempty"`
	SourceErrors   map[string]int `json:"sourceErrors,omitempty"`
	Retries        map[string]int `json:"retries,omitempty"`
	// Overloaded is true when admission control shed the query (HTTP 429;
	// the Retry-After header carries the back-off hint).
	Overloaded bool `json:"overloaded,omitempty"`
	// Tenant is the admission bucket an overloaded query was charged to.
	Tenant string `json:"tenant,omitempty"`
	// RetryAfterMs mirrors the Retry-After header in milliseconds.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// NewHandler builds the HTTP API over a mediator.
func NewHandler(engine *core.Engine) http.Handler {
	return NewHandlerLogged(engine, nil)
}

// NewHandlerLogged builds the HTTP API with a per-request log callback;
// logFn (when non-nil) observes every /query request after it completes.
func NewHandlerLogged(engine *core.Engine, logFn func(RequestLogEntry)) http.Handler {
	h := &handler{engine: engine, logFn: logFn, stmts: make(map[string]*core.PreparedStatement)}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := HealthResponse{
			Status:         "ok",
			Sources:        make(map[string]string),
			PlanCache:      engine.PlanCacheStats(),
			CatalogVersion: engine.Catalog().Version(),
		}
		for name, state := range engine.BreakerStates() {
			resp.Sources[name] = string(state)
			if state != core.BreakerClosed {
				resp.Status = "degraded"
			}
		}
		resp.Admission = engine.AdmissionStats()
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/prepare", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readQueryRequest(w, r)
		if !ok {
			return
		}
		ps, err := engine.PrepareOpts(r.Context(), req.SQL, queryOptions(req))
		if err != nil {
			writeQueryError(w, nil, err)
			return
		}
		id := h.register(ps)
		writeJSON(w, http.StatusOK, PrepareResponse{ID: id, SQL: ps.SQL(), NumParams: ps.NumParams()})
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readQueryRequest(w, r)
		if !ok {
			return
		}
		if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
			req.Trace = true
		}
		if v := r.URL.Query().Get("explain"); v == "1" || v == "true" {
			req.Explain = true
		}
		res, err := h.runQuery(r.Context(), req)
		if h.logFn != nil {
			entry := RequestLogEntry{SQL: req.SQL, Err: err}
			if req.SQL == "" {
				entry.SQL = "stmt:" + req.ID
			}
			if res != nil {
				entry.CacheHit = res.CacheHit
				entry.PlanTime = res.PlanTime
				entry.ExecTime = res.Elapsed
				entry.Rows = len(res.Rows)
			}
			h.logFn(entry)
		}
		if err != nil {
			writeQueryError(w, res, err)
			return
		}
		writeJSON(w, http.StatusOK, toQueryResponse(res))
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
			return
		}
		resp := QueriesResponse{Queries: []InflightQuery{}}
		for _, q := range engine.InflightQueries() {
			resp.Queries = append(resp.Queries, InflightQuery{
				ID:      q.ID(),
				SQL:     q.SQL(),
				Elapsed: q.Elapsed().Round(time.Microsecond).String(),
			})
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/queries/cancel", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad or missing id: %w", err))
			return
		}
		writeJSON(w, http.StatusOK, CancelResponse{Canceled: engine.CancelQuery(id)})
	})
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readQueryRequest(w, r)
		if !ok {
			return
		}
		// Explaining plans the statement, subqueries included, and runs
		// nothing; a request already cancelled still answers 499.
		out, err := engine.Explain(r.Context(), req.SQL, core.QueryOptions{})
		if err != nil {
			writeQueryError(w, nil, err)
			return
		}
		writeJSON(w, http.StatusOK, ExplainResponse{Plan: out})
	})
	mux.HandleFunc("/catalog", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
			return
		}
		writeJSON(w, http.StatusOK, buildCatalog(engine))
	})
	return mux
}

// handler carries the mutable server state: the prepared-statement
// registry and the optional request log.
type handler struct {
	engine *core.Engine
	logFn  func(RequestLogEntry)

	mu     sync.Mutex
	stmts  map[string]*core.PreparedStatement
	nextID int
}

func (h *handler) register(ps *core.PreparedStatement) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	id := fmt.Sprintf("stmt-%d", h.nextID)
	h.stmts[id] = ps
	return id
}

func (h *handler) lookup(id string) (*core.PreparedStatement, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps, ok := h.stmts[id]
	return ps, ok
}

// runQuery executes one /query request: a registered statement handle, a
// parameterized ad-hoc statement, or plain SQL through the transparent
// cache.
func (h *handler) runQuery(ctx context.Context, req QueryRequest) (*core.Result, error) {
	params, err := paramsToDatums(req.Params)
	if err != nil {
		return nil, err
	}
	if req.ID != "" {
		if req.SQL != "" {
			return nil, fmt.Errorf("pass sql or id, not both")
		}
		ps, ok := h.lookup(req.ID)
		if !ok {
			return nil, fmt.Errorf("unknown statement %q (prepare it first)", req.ID)
		}
		return ps.ExecuteCtx(ctx, params...)
	}
	qo := queryOptions(req)
	if len(params) > 0 {
		ps, err := h.engine.PrepareOpts(ctx, req.SQL, qo)
		if err != nil {
			return nil, err
		}
		return ps.ExecuteCtx(ctx, params...)
	}
	return h.engine.QueryOptsCtx(ctx, req.SQL, qo)
}

// queryOptions maps request knobs to engine options.
func queryOptions(req QueryRequest) core.QueryOptions {
	qo := core.DefaultQueryOptions()
	qo.Adaptive = !req.NoAdaptive
	if req.Naive {
		qo = naiveOptions()
	}
	qo.Explain = req.Explain
	qo.NoPlanCache = req.NoPlanCache
	qo.AllowPartial = req.AllowPartial
	if req.RetryAttempts > 1 {
		qo.Retry = exec.RetryPolicy{Attempts: req.RetryAttempts}
	}
	if req.DeadlineMS > 0 {
		qo.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	qo.Parallelism = req.Parallelism
	qo.BatchSize = req.BatchSize
	qo.Trace = req.Trace
	qo.Tenant = req.Tenant
	return qo
}

// paramsToDatums converts JSON parameter values to datums. Numbers decode
// via json.Number so 5 binds as an integer and 5.5 as a float.
func paramsToDatums(vals []any) ([]datum.Datum, error) {
	out := make([]datum.Datum, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = datum.Null
		case bool:
			out[i] = datum.NewBool(x)
		case string:
			out[i] = datum.NewString(x)
		case json.Number:
			if n, err := x.Int64(); err == nil {
				out[i] = datum.NewInt(n)
			} else if f, err := x.Float64(); err == nil {
				out[i] = datum.NewFloat(f)
			} else {
				return nil, fmt.Errorf("param %d: bad number %q", i+1, x.String())
			}
		case float64: // decoder without UseNumber
			out[i] = datum.NewFloat(x)
		default:
			return nil, fmt.Errorf("param %d: unsupported type %T", i+1, v)
		}
	}
	return out, nil
}

func naiveOptions() core.QueryOptions {
	qo := core.QueryOptions{NoSemiJoin: true}
	qo.Optimizer.NoFilterPushdown = true
	qo.Optimizer.NoProjectionPrune = true
	qo.Optimizer.NoJoinReorder = true
	qo.Optimizer.NoRemotePushdown = true
	return qo
}

func readQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, bool) {
	var req QueryRequest
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return req, false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return req, false
	}
	if req.SQL == "" && req.ID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing sql"))
		return req, false
	}
	if t := r.Header.Get(TenantHeader); t != "" {
		req.Tenant = t
	}
	return req, true
}

func toQueryResponse(res *core.Result) QueryResponse {
	out := QueryResponse{Columns: res.Columns, Rows: make([][]any, len(res.Rows))}
	for i, r := range res.Rows {
		row := make([]any, len(r))
		for j, d := range r {
			row[j] = datumToJSON(d)
		}
		out.Rows[i] = row
	}
	out.Network.RoundTrips = res.Network.RoundTrips
	out.Network.BytesShipped = res.Network.BytesShipped
	out.Network.WireBytes = res.Network.WireBytes
	out.Network.SimTime = res.Network.SimTime.String()
	out.Elapsed = res.Elapsed.Round(time.Microsecond).String()
	out.PlanTime = res.PlanTime.Round(time.Microsecond).String()
	out.CacheHit = res.CacheHit
	out.CatalogVersion = res.CatalogVersion
	out.Partial = res.Partial
	out.SkippedSources = res.SkippedSources
	out.ReplicaSources = res.ReplicaSources
	out.SourceErrors = res.SourceErrors
	out.Retries = res.Retries
	out.ExecParallelism = res.ExecParallelism
	out.BatchesProcessed = res.BatchesProcessed
	out.QueryID = res.QueryID
	out.Trace = res.Trace
	out.Tenant = res.Tenant
	if res.QueueTime > 0 {
		out.QueueTime = res.QueueTime.Round(time.Microsecond).String()
	}
	out.ReplanCount = res.ReplanCount
	out.EstimateErrors = res.EstimateErrors
	out.Explain = res.ExplainOutput
	return out
}

func datumToJSON(d datum.Datum) any {
	switch d.Kind() {
	case datum.KindNull:
		return nil
	case datum.KindBool:
		return d.Bool()
	case datum.KindInt:
		return d.Int()
	case datum.KindFloat:
		return d.Float()
	case datum.KindString:
		return d.Str()
	case datum.KindTime:
		return d.Time().Format(time.RFC3339Nano)
	default:
		return d.Display()
	}
}

func buildCatalog(engine *core.Engine) CatalogResponse {
	var out CatalogResponse
	for _, name := range engine.Sources() {
		src, ok := engine.Source(name)
		if !ok {
			continue
		}
		info := SourceInfo{Name: name}
		cat := src.Catalog()
		for _, tn := range cat.TableNames() {
			tab, _ := cat.Table(tn)
			ti := TableInfo{Name: tab.Name}
			for _, c := range tab.Columns {
				ti.Columns = append(ti.Columns, c.Name+" "+c.Kind.String())
			}
			if st, ok := cat.Stats(tn); ok {
				ti.Rows = st.Rows
			}
			info.Tables = append(info.Tables, ti)
		}
		out.Sources = append(out.Sources, info)
	}
	for _, vn := range engine.Catalog().ViewNames() {
		v, _ := engine.Catalog().View(vn)
		out.Views = append(out.Views, ViewInfo{Name: v.Name, SQL: v.SQL})
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeQueryError maps a failed query to its HTTP shape: admission
// rejections answer 429 (too many requests) with a Retry-After header,
// cancellation and deadline expiry answer 499 (client closed request),
// everything else 400. The engine hands back a non-nil Result alongside
// execution errors; its fault ledger (partial flags, per-source errors,
// retries) rides along in the error body so a cancelled AllowPartial
// query still shows what it had reached.
func writeQueryError(w http.ResponseWriter, res *core.Result, err error) {
	body := errorBody{Error: err.Error()}
	status := http.StatusBadRequest
	if o, ok := core.AsOverload(err); ok {
		status = http.StatusTooManyRequests
		body.Overloaded = true
		body.Tenant = o.Tenant
		body.RetryAfterMs = o.RetryAfter.Milliseconds()
		secs := int64((o.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = StatusClientClosedRequest
		body.Canceled = true
	}
	if res != nil {
		body.Partial = res.Partial
		body.SkippedSources = res.SkippedSources
		body.SourceErrors = res.SourceErrors
		body.Retries = res.Retries
	}
	writeJSON(w, status, body)
}

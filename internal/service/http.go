package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"matstore"
	"matstore/internal/memory"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/storage"
)

// TraceIDHeader carries the request's trace id: the coordinator stamps it on
// shard requests so a shard's span tree grafts into the coordinator's under
// one id, and every response echoes it for correlation.
const TraceIDHeader = "X-CS-Trace-Id"

// HTTP front-end: JSON endpoints over a Server. Every request runs through
// a fresh session and the admission gate.
//
//	POST /query   {projection, output, where, groupby, aggcol, agg,
//	               strategy, parallelism, limit}
//	POST /join    {left, right, leftkey, rightkey, where, leftout, rightout,
//	               rightstrategy, parallelism, limit}
//	POST /explain query body (join body when "right" is set) -> plan tree
//	GET  /stats   admission, worker and cache counters
//
// where is a list of "col<op>value" strings (ParseWhere syntax); /join
// accepts at most one, over the outer join key. strategy accepts the four
// strategy names or "advise" (the cost model picks); rightstrategy accepts
// the three right-side names or "advise" (the Section 4.3 terms pick).

// QueryRequest is the /query (and selection /explain) body.
type QueryRequest struct {
	Projection  string   `json:"projection"`
	Output      []string `json:"output,omitempty"`
	Where       []string `json:"where,omitempty"`
	GroupBy     string   `json:"groupby,omitempty"`
	AggCol      string   `json:"aggcol,omitempty"`
	Agg         string   `json:"agg,omitempty"`
	Strategy    string   `json:"strategy,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Limit       int      `json:"limit,omitempty"`
	// Partial marks a scatter-gather shard request: an aggregating query
	// answers with the mergeable per-group statistics (groups) instead of
	// emitted rows, because emitted aggregate values do not merge across
	// shards (AVG loses its count). Selections are unaffected — their row
	// partials concatenate and their checksums add.
	Partial bool `json:"partial,omitempty"`
	// RowIDs marks a shard request over a key-partitioned projection: the
	// engine reads the hidden storage.RowIDColumn alongside the requested
	// outputs and ships each shown row's global row id in rowids (stripping
	// the column from columns/rows/checksum), so the coordinator can k-way
	// merge the shards' global-order subsequences back into global row order.
	RowIDs bool `json:"rowids,omitempty"`
	// Trace requests a span tree: the response's trace field carries the
	// request's full timing breakdown (admission, caches, per-plan-node
	// execution; through the coordinator, each shard's sub-tree).
	Trace bool `json:"trace,omitempty"`
}

// JoinRequest is the /join (and join /explain) body.
type JoinRequest struct {
	Left          string   `json:"left"`
	Right         string   `json:"right"`
	LeftKey       string   `json:"leftkey"`
	RightKey      string   `json:"rightkey"`
	Where         []string `json:"where,omitempty"`
	LeftOutput    []string `json:"leftout,omitempty"`
	RightOutput   []string `json:"rightout,omitempty"`
	RightStrategy string   `json:"rightstrategy,omitempty"`
	Parallelism   int      `json:"parallelism,omitempty"`
	Limit         int      `json:"limit,omitempty"`
	// RowIDs: as in QueryRequest, over the left (outer) projection — the
	// hidden row-id column rides the left output list through the probe.
	RowIDs bool `json:"rowids,omitempty"`
	// Trace: as in QueryRequest.
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the /query and /join response.
type QueryResponse struct {
	Columns  []string  `json:"columns"`
	Rows     [][]int64 `json:"rows"`
	RowCount int       `json:"row_count"`
	Checksum int64     `json:"checksum"`
	Strategy string    `json:"strategy"`
	Wall     int64     `json:"wall_nanos"`
	Workers  int       `json:"workers"`
	Morsels  int       `json:"morsels"`
	Queued   int64     `json:"queued_nanos"`
	Session  int64     `json:"session"`
	// EstCostUS is the model estimate the admission grant sizer used.
	EstCostUS float64 `json:"est_cost_us"`
	// Cache reuse flags: the ci smoke greps result_cache_hit on a repeated
	// query and build_cache_hit on a repeated join.
	ResultCacheHit bool `json:"result_cache_hit"`
	PlanCacheHit   bool `json:"plan_cache_hit"`
	BuildCacheHit  bool `json:"build_cache_hit"`
	// Groups is a partial aggregation's exported per-group mergeable
	// statistics (set only for partial=true aggregating requests, which omit
	// rows); the coordinator absorbs every shard's groups and re-emits.
	Groups []operators.GroupStats `json:"groups,omitempty"`
	// RowIDs parallels Rows for rowids=true requests: each shown row's
	// global row id, the coordinator's merge key.
	RowIDs []int64 `json:"rowids,omitempty"`
	// Join-only counters.
	Partitions      int   `json:"partitions,omitempty"`
	Probes          int64 `json:"probes,omitempty"`
	BuildTuples     int64 `json:"build_tuples,omitempty"`
	DeferredFetches int64 `json:"deferred_fetches,omitempty"`
	// Memory-governance fields: the byte reservation the request held, and
	// whether the governor forced the join's build side into Grace spill mode
	// (the ci smoke greps "spilled":true under a tiny budget).
	ReservedBytes     int64 `json:"reserved_bytes,omitempty"`
	Spilled           bool  `json:"spilled,omitempty"`
	SpilledPartitions int   `json:"spilled_partitions,omitempty"`
	SpillBytes        int64 `json:"spill_bytes,omitempty"`
	// Trace is the request's span tree, present only when the request asked
	// for one — omitempty keeps untraced responses byte-identical to before
	// tracing existed.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// ExplainResponse is the /explain response.
type ExplainResponse struct {
	Strategy  string         `json:"strategy"`
	Tree      string         `json:"tree"`
	ModeledUS float64        `json:"modeled_total_us"`
	Wall      int64          `json:"wall_nanos"`
	Workers   int            `json:"workers"`
	RowCount  int            `json:"row_count"`
	Trace     *obs.TraceJSON `json:"trace,omitempty"`
}

const defaultRowLimit = 100

// resolveLimit applies the request limit convention: 0 = the default cap,
// negative = all rows. The coordinator resolves it once, so shards always
// receive an explicit limit.
func resolveLimit(limit int) int {
	if limit == 0 {
		return defaultRowLimit
	}
	return limit
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := s.metrics.newMux(s.start, nil, map[string]http.HandlerFunc{
		"query":   s.handleQuery,
		"join":    s.handleJoin,
		"explain": s.handleExplain,
		"stats": func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, s.Stats())
		},
	})
	// Readiness: 503 while draining (SIGTERM received, connections finishing)
	// or under memory pressure (requests queued for byte reservations), so a
	// load balancer routes around this instance before requests pile up.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		draining, pressured := s.Draining(), s.MemoryPressured()
		status := http.StatusOK
		if draining || pressured {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]bool{
			"ready":           status == http.StatusOK,
			"draining":        draining,
			"memory_pressure": pressured,
		})
	})
	return mux
}

// statusWriter records the status an instrumented handler wrote so the
// middleware can label its metrics by outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// newMux builds the endpoint surface the engine and the coordinator share,
// so clients (and the csserve client mode) are oblivious to whether they
// talk to one engine or a fleet: the request endpoints, instrumented;
// /metrics in Prometheus text; and /healthz, the liveness probe — always 200
// while the process serves HTTP — with the caller's health fields added.
func (m *requestMetrics) newMux(start time.Time, health map[string]any, endpoints map[string]http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	for name, h := range endpoints {
		mux.Handle("/"+name, m.instrument(name, h))
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"status":         "ok",
			"version":        obs.Version,
			"go":             runtime.Version(),
			"pid":            os.Getpid(),
			"uptime_seconds": time.Since(start).Seconds(),
		}
		maps.Copy(body, health)
		writeJSON(w, http.StatusOK, body)
	})
	return mux
}

// instrument wraps an endpoint handler to count requests and observe latency
// by endpoint × outcome.
func (m *requestMetrics) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		outcome := outcomeOf(status)
		m.requests.With(endpoint, outcome).Inc()
		m.latency.With(endpoint, outcome).Observe(time.Since(start).Seconds())
	})
}

// ensureTraceID resolves the request's trace id — the propagated
// X-CS-Trace-Id header when present (a coordinator fan-out), a fresh random
// id otherwise — and echoes it on the response so every reply is
// correlatable even when no span tree was requested.
func ensureTraceID(w http.ResponseWriter, r *http.Request) string {
	tid := r.Header.Get(TraceIDHeader)
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set(TraceIDHeader, tid)
	return tid
}

// resolveQuery turns a /query (or selection /explain) body into the engine
// query and its strategy, consulting the cost model for "advise" (the
// advisor needs at least one filter; it falls back to LM-parallel
// otherwise, the paper's all-round default). rowids appends the hidden
// row-id column to the outputs first. An error is the client's.
func (s *Server) resolveQuery(req QueryRequest, rowids bool) (matstore.Query, matstore.Strategy, error) {
	filters, err := parseWhereList(req.Where)
	if err != nil {
		return matstore.Query{}, 0, err
	}
	q := matstore.Query{
		Output:      req.Output,
		Filters:     filters,
		GroupBy:     req.GroupBy,
		AggCol:      req.AggCol,
		Parallelism: req.Parallelism,
	}
	if req.Agg != "" {
		if q.Agg, err = matstore.ParseAggFunc(req.Agg); err != nil {
			return q, 0, err
		}
	}
	if rowids {
		q.Output = append(append([]string{}, q.Output...), storage.RowIDColumn)
	}
	switch req.Strategy {
	case "", "advise":
		if req.Strategy == "advise" && len(q.Filters) > 0 {
			adv, err := s.db.AdviseParallel(req.Projection, q, s.cfg.WorkerBudget)
			if err != nil {
				return q, 0, err
			}
			return q, adv.Best, nil
		}
		return q, matstore.LMParallel, nil
	default:
		strat, err := matstore.ParseStrategy(req.Strategy)
		return q, strat, err
	}
}

// startTrace attaches a new trace to ctx when the request asked for one.
func (m *requestMetrics) startTrace(ctx context.Context, tid, root string, want bool) (context.Context, *obs.Trace) {
	if !want {
		return ctx, nil
	}
	m.traced.Inc()
	tr := obs.NewTrace(tid, root)
	return obs.ContextWithSpan(ctx, tr.Root()), tr
}

// noteSlow emits the structured slow-query record — query shape, trace
// summary and the modeled-vs-observed delta — once wall time crosses the
// configured threshold.
func (s *Server) noteSlow(endpoint, tid, shape string, wall time.Duration, modeledUS float64, tr *obs.Trace) {
	th := s.cfg.SlowQueryMicros
	if th <= 0 || wall < time.Duration(th)*time.Microsecond {
		return
	}
	s.metrics.slow.Inc()
	kv := []any{"trace_id", tid, "endpoint", endpoint, "shape", shape,
		"wall_us", wall.Microseconds(), "modeled_us", int64(modeledUS),
		"delta_us", wall.Microseconds() - int64(modeledUS)}
	if tj := tr.JSON(); tj != nil {
		kv = append(kv, "phases", spanSummary(tj.Root))
	}
	s.logger.Info("slow query", kv...)
}

// spanSummary renders a compact trace summary: each top-level phase with
// its duration in µs.
func spanSummary(root *obs.SpanJSON) string {
	if root == nil {
		return ""
	}
	var b strings.Builder
	for i, c := range root.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%dus", c.Name, c.DurNS/1000)
	}
	return b.String()
}

// shape renders the request compactly for the slow-query log.
func (r QueryRequest) shape() string {
	sh := "select " + r.Projection
	if len(r.Where) > 0 {
		sh += " where " + strings.Join(r.Where, ",")
	}
	if r.GroupBy != "" {
		sh += " groupby " + r.GroupBy
	}
	if r.Agg != "" {
		sh += " agg " + r.Agg
	}
	return sh
}

func (r JoinRequest) shape() string {
	sh := fmt.Sprintf("join %s x %s on %s=%s", r.Left, r.Right, r.LeftKey, r.RightKey)
	if len(r.Where) > 0 {
		sh += " where " + strings.Join(r.Where, ",")
	}
	return sh
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rowids := req.RowIDs && req.GroupBy == "" && req.AggCol == ""
	q, strat, err := s.resolveQuery(req, rowids)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, tr := s.metrics.startTrace(r.Context(), tid, "query", req.Trace)
	out, err := s.NewSession().Select(ctx, req.Projection, q, strat)
	if err != nil {
		s.fail(w, "query", tid, req.shape(), err)
		return
	}
	resp := baseResponse(out.Res, out.Stats, out.Info, req.Limit)
	resp.Strategy = out.Stats.Strategy.String()
	if req.Partial && out.Stats.AggState != nil {
		// Shard partial of an aggregation: ship the mergeable group
		// statistics, not the emitted rows.
		resp.Groups = out.Stats.AggState.ExportGroups()
		resp.Rows = nil
	}
	if rowids {
		stripRowIDs(resp, out.Res, len(req.Output))
	}
	if tr != nil {
		tr.Root().End()
		resp.Trace = tr.JSON()
	}
	s.noteSlow("query", tid, req.shape(), out.Stats.Wall, out.Info.EstCostUS, tr)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, rs, err := s.resolveJoin(req, req.RowIDs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, tr := s.metrics.startTrace(r.Context(), tid, "join", req.Trace)
	out, err := s.NewSession().Join(ctx, req.Left, req.Right, q, rs)
	if err != nil {
		s.fail(w, "join", tid, req.shape(), err)
		return
	}
	resp := baseResponse(out.Res, &out.Stats.Stats, out.Info, req.Limit)
	resp.Strategy = out.Stats.RightStrategy.String()
	resp.Partitions = out.Stats.Join.Partitions
	resp.Probes = out.Stats.Join.LeftProbes
	resp.BuildTuples = out.Stats.Join.RightBuildTuples
	resp.DeferredFetches = out.Stats.Join.DeferredFetches
	resp.ReservedBytes = out.Info.ReservedBytes
	resp.Spilled = out.Stats.Join.Spilled
	resp.SpilledPartitions = out.Stats.Join.SpilledParts
	resp.SpillBytes = out.Stats.Join.SpillBytes
	if req.RowIDs {
		stripRowIDs(resp, out.Res, len(req.LeftOutput))
	}
	if tr != nil {
		tr.Root().End()
		resp.Trace = tr.JSON()
	}
	s.noteSlow("join", tid, req.shape(), out.Stats.Stats.Wall, out.Info.EstCostUS, tr)
	writeJSON(w, http.StatusOK, resp)
}

// resolveJoin turns a /join (or join /explain) body into the engine join
// query and its inner-table strategy, consulting the Section 4.3 cost terms
// for "advise". rowids appends the hidden row-id column to the left
// outputs first. An error is the client's.
func (s *Server) resolveJoin(req JoinRequest, rowids bool) (matstore.JoinQuery, matstore.RightStrategy, error) {
	q := matstore.JoinQuery{
		LeftKey:     req.LeftKey,
		LeftPred:    matstore.MatchAll,
		LeftOutput:  req.LeftOutput,
		RightKey:    req.RightKey,
		RightOutput: req.RightOutput,
		Parallelism: req.Parallelism,
	}
	filters, err := parseWhereList(req.Where)
	if err != nil {
		return q, 0, err
	}
	switch len(filters) {
	case 0:
	case 1:
		if filters[0].Col != q.LeftKey {
			return q, 0, fmt.Errorf("join where must predicate the outer join key %q, got %q", q.LeftKey, filters[0].Col)
		}
		q.LeftPred = filters[0].Pred
	default:
		return q, 0, fmt.Errorf("join accepts at most one where predicate, got %d", len(filters))
	}
	if rowids {
		q.LeftOutput = append(append([]string{}, q.LeftOutput...), storage.RowIDColumn)
	}
	switch req.RightStrategy {
	case "":
		return q, matstore.RightMaterialized, nil
	case "advise":
		adv, err := s.db.AdviseJoin(req.Left, req.Right, q)
		if err != nil {
			return q, 0, err
		}
		return q, adv.Best, nil
	default:
		rs, err := matstore.ParseRightStrategy(req.RightStrategy)
		return q, rs, err
	}
}

// fail logs a failed request and maps its error onto an HTTP status.
func (s *Server) fail(w http.ResponseWriter, endpoint, tid, shape string, err error) {
	s.logger.Error(endpoint+" failed", "trace_id", tid, "endpoint", endpoint,
		"shape", shape, "error", err.Error())
	writeServiceError(w, err)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	// One body shape for both: the join fields decide which explain runs.
	var probe struct {
		Right string `json:"right"`
		Trace bool   `json:"trace"`
	}
	var raw json.RawMessage
	if !decodeBody(w, r, &raw) {
		return
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, tr := s.metrics.startTrace(r.Context(), tid, "explain", probe.Trace)
	var (
		ex    *matstore.Explanation
		info  Info
		shape string
		err   error
	)
	if probe.Right != "" {
		var req JoinRequest
		var q matstore.JoinQuery
		var rs matstore.RightStrategy
		if err = json.Unmarshal(raw, &req); err == nil {
			shape = req.shape()
			q, rs, err = s.resolveJoin(req, false)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ex, info, err = s.NewSession().ExplainJoin(ctx, req.Left, req.Right, q, rs)
	} else {
		var req QueryRequest
		var q matstore.Query
		var strat matstore.Strategy
		if err = json.Unmarshal(raw, &req); err == nil {
			shape = req.shape()
			q, strat, err = s.resolveQuery(req, false)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ex, info, err = s.NewSession().Explain(ctx, req.Projection, q, strat)
	}
	if err != nil {
		s.fail(w, "explain", tid, shape, err)
		return
	}
	resp := ExplainResponse{
		Strategy:  ex.Strategy.String(),
		Tree:      ex.String(),
		ModeledUS: ex.Modeled.Total(),
		Wall:      ex.Stats.Wall.Nanoseconds(),
		Workers:   info.Workers,
		RowCount:  ex.Result.NumRows(),
	}
	if tr != nil {
		tr.Root().End()
		resp.Trace = tr.JSON()
	}
	s.noteSlow("explain", tid, shape, ex.Stats.Wall, ex.Modeled.Total(), tr)
	writeJSON(w, http.StatusOK, resp)
}

func baseResponse(res *matstore.Result, stats *matstore.Stats, info Info, limit int) *QueryResponse {
	limit = resolveLimit(limit)
	n := res.NumRows()
	shown := n
	if limit > 0 && shown > limit {
		shown = limit
	}
	rows := make([][]int64, shown)
	for i := range rows {
		rows[i] = res.Row(i)
	}
	return &QueryResponse{
		Columns:        res.Columns,
		Rows:           rows,
		RowCount:       n,
		Checksum:       stats.OutputChecksum,
		Wall:           stats.Wall.Nanoseconds(),
		Workers:        info.Workers,
		Morsels:        stats.Morsels,
		Queued:         info.Queued.Nanoseconds(),
		Session:        info.Session,
		EstCostUS:      info.EstCostUS,
		ResultCacheHit: info.ResultCacheHit,
		PlanCacheHit:   info.PlanCacheHit,
		BuildCacheHit:  info.BuildCacheHit,
	}
}

// stripRowIDs removes the hidden row-id column (at idx in the output list)
// from a response: each shown row's id moves into resp.RowIDs, the column
// name disappears, and the checksum drops the column's total over ALL
// result rows — the checksum covers every matching row, not just the shown
// ones — so shard checksums still sum to the single-engine value.
func stripRowIDs(resp *QueryResponse, res *matstore.Result, idx int) {
	var total int64
	for _, v := range res.Cols[idx] {
		total += v
	}
	resp.Checksum -= total
	cols := make([]string, 0, len(resp.Columns)-1)
	cols = append(cols, resp.Columns[:idx]...)
	cols = append(cols, resp.Columns[idx+1:]...)
	resp.Columns = cols
	resp.RowIDs = make([]int64, len(resp.Rows))
	for i, row := range resp.Rows {
		resp.RowIDs[i] = row[idx]
		resp.Rows[i] = append(row[:idx], row[idx+1:]...)
	}
}

func parseWhereList(where []string) ([]matstore.Filter, error) {
	var out []matstore.Filter
	for _, s := range where {
		f, err := matstore.ParsePredicateExpr(s)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	// Echo the trace id (set on the response header before any error can
	// occur) so a failing request is still correlatable with server logs.
	if tid := w.Header().Get(TraceIDHeader); tid != "" {
		body["trace_id"] = tid
	}
	writeJSON(w, status, body)
}

// writeServiceError maps a session error onto an HTTP status: request
// faults (RequestError: unknown projection/column, malformed shape) are 400,
// a cancelled or timed-out request context is 499 (the de-facto
// "client closed request" status), a memory-governor shed is 503 with a
// Retry-After hint (the correct backpressure signal for load balancers and
// retrying clients), and execution failures are 500 so monitoring and retry
// logic see a server fault.
func writeServiceError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var re *RequestError
	switch {
	case errors.As(err, &re):
		status = http.StatusBadRequest
	case errors.Is(err, memory.ErrShed):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = 499
	}
	writeError(w, status, err)
}

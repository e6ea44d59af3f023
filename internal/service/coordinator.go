package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matstore"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/storage"
)

// Scatter-gather coordinator: one process fronting N shard engines, each an
// ordinary csserve over one shard directory of a csgen -shards layout. The
// coordinator loads ONLY metadata at startup (shards.json plus every
// shard's per-projection meta.json) — shard data is never touched here —
// and serves the same /query, /join and /explain endpoints by fanning
// requests out over the shard HTTP endpoints in parallel and merging the
// partials with the exact deterministic contract the morsel executor uses
// in memory:
//
//   - range-sharded selection/join row partials concatenate in shard order
//     (shard order IS global row order, so this is rows.Result.Append
//     across the wire); row counts and output checksums add;
//   - key-partitioned partials arrive tagged with each row's global row id
//     (the hidden storage.RowIDColumn, requested via rowids=true) and are
//     k-way merged by ascending row id — each shard's rows are a
//     global-order subsequence, so the merge restores exactly the global
//     interleaving;
//   - aggregation partials ship mergeable per-group statistics
//     (operators.GroupStats, requested via partial=true) which the
//     coordinator absorbs into a fresh Aggregator and re-emits sorted by
//     key — emitted aggregate values do not merge (AVG loses its count),
//     the statistics do. When the group-by key IS the partition key the
//     statistics wire is skipped entirely: group keys are disjoint across
//     shards, so shards ship finalized rows that concat and sort by key
//     (the finalization pushdown);
//   - explain trees concatenate with per-shard row-range (or hash-scheme)
//     headers.
//
// Because the merge contract is the executor's, coordinator responses are
// byte-identical to the single-process engine at every shard count.
//
// Routing: sharded projections fan out to every shard whose row range is
// non-empty (key-partitioned projections: every shard), minus shards whose
// column min/max statistics refute every predicate (zone-map pruning lifted
// to shard granularity); replicated projections round-robin to a single
// shard. Joins run shard-local against the replicated right side (left
// sharded) or route to one shard (left replicated); a sharded right side is
// accepted only when both sides are CO-PARTITIONED — hash-partitioned on
// the join keys under the same scheme with equal shard counts — in which
// case the join fans out as N shard-local joins with no inner replication;
// any other sharded right side is rejected up front with a 400 naming the
// incompatibility.

// DefaultShardTimeout bounds one shard request when the config leaves it 0.
const DefaultShardTimeout = 30 * time.Second

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// ShardTimeout is the per-shard fan-out timeout (0 = 30s). A shard that
	// misses it turns the whole request into 504.
	ShardTimeout time.Duration
	// Client overrides the HTTP client used for shard requests (nil = a
	// default client; the per-request timeout still comes from ShardTimeout).
	Client *http.Client
	// Logger receives structured JSON log lines (slow queries, fan-out
	// failures). Nil disables logging.
	Logger *obs.Logger
	// SlowQueryMicros is the slow-query log threshold (0 = disabled), as in
	// Config.
	SlowQueryMicros int64
}

// shardNode is one shard's routing state: its endpoint plus the
// per-projection catalog records read at startup.
type shardNode struct {
	url   string
	metas map[string]storage.ProjectionMeta
}

// Coordinator fans requests over shard engines and merges the partials.
type Coordinator struct {
	manifest *storage.ShardManifest
	shards   []shardNode
	client   *http.Client
	timeout  time.Duration

	start   time.Time
	metrics *coordMetrics
	logger  *obs.Logger
	slowUS  int64

	queries       atomic.Int64
	fannedOut     atomic.Int64 // requests that went to more than one shard
	routedSingle  atomic.Int64 // requests answered by exactly one shard
	shardRequests atomic.Int64 // total shard HTTP requests issued
	prunedShards  atomic.Int64 // shards skipped by min/max statistics
	shardErrors   atomic.Int64 // shard requests that failed or timed out
	aggMerges     atomic.Int64 // partial aggregations absorbed and re-emitted
	copartJoins   atomic.Int64 // joins fanned out co-partitioned (no inner replication)
	finalizedAggs atomic.Int64 // partition-key aggregations merged from finalized rows
	rowidMerges   atomic.Int64 // key-partitioned fan-outs k-way merged by row id
	rr            atomic.Int64 // round-robin cursor for replicated routing
}

// NewCoordinator loads the shard manifest and every shard's projection
// metadata from a csgen -shards root and binds shard k to endpoints[k]
// (base URLs such as http://127.0.0.1:9101). No shard data is read.
func NewCoordinator(root string, endpoints []string, cfg CoordinatorConfig) (*Coordinator, error) {
	m, err := storage.LoadShardManifest(root)
	if err != nil {
		return nil, err
	}
	if len(endpoints) != m.NumShards {
		return nil, fmt.Errorf("service: manifest has %d shards but %d endpoints given", m.NumShards, len(endpoints))
	}
	c := &Coordinator{
		manifest: m,
		client:   cfg.Client,
		timeout:  cfg.ShardTimeout,
		start:    time.Now(),
		logger:   cfg.Logger,
		slowUS:   cfg.SlowQueryMicros,
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.timeout <= 0 {
		c.timeout = DefaultShardTimeout
	}
	for k, ep := range endpoints {
		dir := filepath.Join(root, m.Dirs[k])
		projs, err := storage.ListProjectionDirs(dir)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		node := shardNode{url: ep, metas: make(map[string]storage.ProjectionMeta, len(projs))}
		for _, p := range projs {
			meta, err := storage.ReadProjectionMeta(filepath.Join(dir, p))
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", k, err)
			}
			node.metas[p] = meta
		}
		c.shards = append(c.shards, node)
	}
	c.metrics = newCoordMetrics(c, c.start)
	return c, nil
}

// Manifest returns the loaded shard manifest.
func (c *Coordinator) Manifest() *storage.ShardManifest { return c.manifest }

// Metrics returns the coordinator's Prometheus registry (the /metrics
// backing).
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics.reg }

// shardReply is one shard's raw reply: a status, body and Retry-After, or
// the transport error that stopped it. It doubles as what a failed fan-out
// hands back to the client: the failing shard's reply, or a status with an
// error.
type shardReply struct {
	shard      int
	status     int
	body       []byte
	retryAfter string
	err        error
}

// write relays a reply to the client: its status, Retry-After and body
// verbatim, or its status with an error document when it carries an error.
func (r *shardReply) write(w http.ResponseWriter) {
	if r.retryAfter != "" {
		w.Header().Set("Retry-After", r.retryAfter)
	}
	if r.err != nil {
		writeError(w, r.status, r.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(r.status)
	_, _ = w.Write(r.body)
}

// fanout POSTs body to path on the given shards in parallel, each under the
// per-shard timeout, and returns the replies in shard order. The failure
// return folds per-shard failures into one front-end failure, scanned in
// shard order so the mapping is deterministic: a transport fault is 502, a
// timeout 504, a shard 503 propagates as 503 carrying the LARGEST
// Retry-After any shedding shard advertised (retrying sooner than the
// slowest shard recovers would just shed again), and any other non-200
// shard status (400, 500) passes through with the shard's body.
// When span is non-nil, each shard call opens a sibling "shard k" child span
// (the trace mutex makes concurrent sibling creation safe) and the shard's
// own span tree — returned inline in its traced response body, under the
// same trace id propagated via X-CS-Trace-Id — is grafted beneath it, so the
// coordinator's tree embeds every shard's admission and per-plan-node spans.
func (c *Coordinator) fanout(ctx context.Context, path string, body any, shards []int, tid string, span *obs.Span) ([]shardReply, *shardReply) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, &shardReply{status: http.StatusInternalServerError, err: err}
	}
	replies := make([]shardReply, len(shards))
	var wg sync.WaitGroup
	for i, k := range shards {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			sspan := span.Child("shard " + shardLabel(k))
			sspan.SetAttr("shard", k)
			sspan.SetAttr("url", c.shards[k].url)
			replies[i] = c.callShard(ctx, path, raw, k, tid)
			if rep := &replies[i]; span != nil && rep.err == nil && rep.status == http.StatusOK {
				var t struct {
					Trace *obs.TraceJSON `json:"trace"`
				}
				if json.Unmarshal(rep.body, &t) == nil && t.Trace != nil {
					sspan.SetAttr("shard_trace_id", t.Trace.ID)
					sspan.Graft(t.Trace.Root)
				}
			}
			sspan.End()
		}(i, k)
	}
	wg.Wait()

	var shed *shardReply
	for i, r := range replies {
		switch {
		case r.err != nil:
			c.shardErrors.Add(1)
			status := http.StatusBadGateway
			if errors.Is(r.err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			return nil, &shardReply{status: status, err: fmt.Errorf("shard %d: %w", r.shard, r.err)}
		case r.status == http.StatusServiceUnavailable:
			c.shardErrors.Add(1)
			if shed == nil || retryAfterSeconds(r.retryAfter) > retryAfterSeconds(shed.retryAfter) {
				shed = &replies[i]
			}
		case r.status != http.StatusOK:
			c.shardErrors.Add(1)
			return nil, &replies[i]
		}
	}
	if shed != nil {
		return nil, shed
	}
	return replies, nil
}

func (c *Coordinator) callShard(ctx context.Context, path string, body []byte, k int, tid string) shardReply {
	c.shardRequests.Add(1)
	start := time.Now()
	defer func() { c.metrics.shardLatency[k].Observe(time.Since(start).Seconds()) }()
	return c.roundTrip(ctx, http.MethodPost, path, bytes.NewReader(body), k, tid)
}

// roundTrip sends one request to shard k under the per-shard timeout and
// reads the whole reply. A transport failure past the deadline reports the
// context's error, which the fan-out maps to 504.
func (c *Coordinator) roundTrip(ctx context.Context, method, path string, body io.Reader, k int, tid string) shardReply {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.shards[k].url+path, body)
	if err != nil {
		return shardReply{shard: k, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if tid != "" {
		req.Header.Set(TraceIDHeader, tid)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return shardReply{shard: k, err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return shardReply{shard: k, err: err}
	}
	return shardReply{shard: k, status: resp.StatusCode, body: raw, retryAfter: resp.Header.Get("Retry-After")}
}

// retryAfterSeconds reads a Retry-After delay; an absent or unparsable
// value counts as 0.
func retryAfterSeconds(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// shardsFor routes a request over a projection: a sharded projection fans
// out to every shard holding rows (a non-empty row range, or any shard of a
// key-partitioned placement) whose column min/max statistics cannot refute
// the predicates (shard-level zone-map pruning); a replicated projection
// round-robins to one shard. At least one shard is always returned so
// fully-pruned requests still produce a well-formed empty result.
func (c *Coordinator) shardsFor(proj string, filters []matstore.Filter) ([]int, error) {
	pl, ok := c.manifest.Placement(proj)
	if !ok {
		return nil, fmt.Errorf("projection %q not in shard manifest", proj)
	}
	if !pl.Sharded {
		return []int{int(c.rr.Add(1)-1) % len(c.shards)}, nil
	}
	var out []int
	for k := range c.shards {
		if !pl.KeyPartitioned() && (k >= len(pl.Ranges) || pl.Ranges[k].Len() == 0) {
			continue
		}
		if c.pruneShard(k, proj, filters) {
			c.prunedShards.Add(1)
			continue
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out, nil
}

// pruneShard reports that shard k provably holds no row of proj matching
// every filter, using the per-shard catalog min/max (the same test the
// executor's zone index applies per block, lifted to shard granularity).
// Conservative: unknown columns and non-interval predicates never prune.
func (c *Coordinator) pruneShard(k int, proj string, filters []matstore.Filter) bool {
	meta, ok := c.shards[k].metas[proj]
	if !ok {
		return false
	}
	for _, f := range filters {
		lo, hi, ok := f.Pred.Interval()
		if !ok {
			continue
		}
		for _, cm := range meta.Columns {
			if cm.Name != f.Col {
				continue
			}
			if hi < cm.Min || lo > cm.Max {
				return true
			}
			break
		}
	}
	return false
}

// Handler returns the coordinator's HTTP mux: the same endpoint surface as
// a shard engine, so clients (and the csserve client mode) are oblivious to
// whether they talk to one engine or a fleet.
func (c *Coordinator) Handler() http.Handler {
	mux := c.metrics.newMux(c.start, map[string]any{"role": "coordinator"}, map[string]http.HandlerFunc{
		"query":   c.handleQuery,
		"join":    c.handleJoin,
		"explain": c.handleExplain,
		"stats":   c.handleStats,
	})
	mux.HandleFunc("/readyz", c.handleReady)
	return mux
}

// noteSlow is the coordinator's slow-query record (see Server.noteSlow).
func (c *Coordinator) noteSlow(endpoint, tid, shape string, wall time.Duration, shards int, tr *obs.Trace) {
	if c.slowUS <= 0 || wall < time.Duration(c.slowUS)*time.Microsecond {
		return
	}
	c.metrics.slow.Inc()
	kv := []any{"trace_id", tid, "endpoint", endpoint, "shape", shape,
		"wall_us", wall.Microseconds(), "shards", shards}
	if tj := tr.JSON(); tj != nil {
		kv = append(kv, "phases", spanSummary(tj.Root))
	}
	c.logger.Info("slow query", kv...)
}

// mergeKind names how a fan-out's shard partials combine — the paper's
// strategies differ only in when partial results merge, and the coordinator
// lifts that choice onto the wire as this one parameter. The value doubles
// as the merge span's kind attribute.
type mergeKind string

const (
	mergeConcat        mergeKind = "concat"         // range-sharded rows: shard order is global order
	mergeRowIDKway     mergeKind = "rowid_kway"     // key-partitioned rows: k-way merge by global row id
	mergeFinalizedAgg  mergeKind = "finalized_agg"  // group-by on the partition key: disjoint groups concat
	mergeAggStatistics mergeKind = "agg_statistics" // any other aggregation: absorb per-group statistics
	mergeExplain       mergeKind = "explain"        // plan trees concat under per-shard headers
)

// route is a request's routing record: all a handler decides, and all the
// shared pipeline (serve) needs to do the rest.
type route struct {
	endpoint string // "query", "join" or "explain": shard path, trace root, log label
	req      any    // the client's request, relayed as-is over a single-shard route
	body     any    // the fan-out shard request (limit, partial and rowids resolved)
	shards   []int
	kind     mergeKind
	shape    string // slow-query log rendering
	trace    bool
	limit    int               // resolved row limit the merge truncates to
	fn       operators.AggFunc // agg_statistics only
	copart   bool              // join only: both sides co-partitioned on the join keys
	outer    string            // explain only: the projection whose placement heads each tree
}

// serve is the pipeline every coordinator endpoint shares. It decodes the
// body into dst and asks the handler's build for the route (a build error
// is the client's: 400). A single-shard route (replicated projections,
// fully-pruned or one-shard layouts) relays: the shard's response IS the
// global response, and a traced one carries the shard's own span tree
// under the propagated trace id. Any other route fans out, decodes and
// validates the partials, merges them by the route's kind and responds.
func (c *Coordinator) serve(w http.ResponseWriter, r *http.Request, dst any, build func() (route, error)) {
	start := time.Now()
	tid := ensureTraceID(w, r)
	if !decodeBody(w, r, dst) {
		return
	}
	c.queries.Add(1)
	rt, err := build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	path := "/" + rt.endpoint
	if len(rt.shards) == 1 {
		c.routedSingle.Add(1)
		replies, fail := c.fanout(r.Context(), path, rt.req, rt.shards, tid, nil)
		if fail != nil {
			fail.write(w)
		} else {
			replies[0].write(w)
		}
		return
	}
	c.fannedOut.Add(1)
	if rt.copart {
		c.copartJoins.Add(1)
	}
	_, tr := c.metrics.startTrace(r.Context(), tid, "coordinator."+rt.endpoint, rt.trace)
	fspan := tr.Root().Child("fanout")
	fspan.SetAttr("parallel", true)
	fspan.SetAttr("shards", len(rt.shards))
	if rt.endpoint == "join" {
		fspan.SetAttr("copartitioned", rt.copart)
	}
	replies, fail := c.fanout(r.Context(), path, rt.body, rt.shards, tid, fspan)
	fspan.End()
	var parts []*shardPart
	if fail == nil {
		parts, fail = c.decodeParts(replies, rt.kind)
	}
	if fail != nil {
		msg := string(fail.body)
		if fail.err != nil {
			msg = fail.err.Error()
		}
		c.logger.Error("fanout failed", "trace_id", tid, "endpoint", rt.endpoint,
			"status", fail.status, "error", msg)
		fail.write(w)
		return
	}
	gspan := tr.Root().Child("merge")
	gspan.SetAttr("kind", string(rt.kind))
	resp, rows := c.merge(rt, parts)
	gspan.SetAttr("rows", rows)
	gspan.End()
	wall := time.Since(start)
	var tj *obs.TraceJSON
	if tr != nil {
		tr.Root().End()
		tj = tr.JSON()
	}
	switch m := resp.(type) {
	case *QueryResponse:
		m.Wall, m.Trace = wall.Nanoseconds(), tj
	case *ExplainResponse:
		m.Wall, m.Trace = wall.Nanoseconds(), tj
	}
	c.noteSlow(rt.endpoint, tid, rt.shape, wall, len(rt.shards), tr)
	writeJSON(w, http.StatusOK, resp)
}

// shardPart is one decoded shard partial: a /query or /join response, or an
// /explain response, whose plan tree and modeled cost ride alongside the
// fields the two share.
type shardPart struct {
	QueryResponse
	Tree      string  `json:"tree"`
	ModeledUS float64 `json:"modeled_total_us"`
}

// decodeParts decodes the fan-out replies and rejects, as a 502 naming the
// shard, partials that cannot merge: shards disagreeing on the result
// columns, or a row-id merge partial whose row ids do not parallel its rows
// (the k-way merge would silently drop the rows past its last id).
func (c *Coordinator) decodeParts(replies []shardReply, kind mergeKind) ([]*shardPart, *shardReply) {
	parts := make([]*shardPart, len(replies))
	for i, rep := range replies {
		p := new(shardPart)
		var reason string
		switch err := json.Unmarshal(rep.body, p); {
		case err != nil:
			reason = "bad response: " + err.Error()
		case i > 0 && !slices.Equal(p.Columns, parts[0].Columns):
			reason = fmt.Sprintf("columns %v differ from shard %d's %v", p.Columns, replies[0].shard, parts[0].Columns)
		case kind == mergeRowIDKway && len(p.RowIDs) != len(p.Rows):
			reason = fmt.Sprintf("%d row ids for %d rows", len(p.RowIDs), len(p.Rows))
		}
		if reason != "" {
			c.shardErrors.Add(1)
			return nil, &shardReply{status: http.StatusBadGateway, err: fmt.Errorf("shard %d: %s", rep.shard, reason)}
		}
		parts[i] = p
	}
	return parts, nil
}

// merge combines the partials by the route's kind, returning the response
// and its row count.
func (c *Coordinator) merge(rt route, parts []*shardPart) (any, int) {
	if rt.kind == mergeExplain {
		ex := c.mergeExplainParts(rt.outer, rt.shards, parts)
		return ex, ex.RowCount
	}
	qs := make([]*QueryResponse, len(parts))
	for i, p := range parts {
		qs[i] = &p.QueryResponse
	}
	var resp *QueryResponse
	switch rt.kind {
	case mergeFinalizedAgg:
		resp = mergeFinalizedAggParts(qs, rt.limit)
		c.finalizedAggs.Add(1)
	case mergeAggStatistics:
		resp = mergeAggParts(qs, rt.fn, rt.limit)
		c.aggMerges.Add(1)
	case mergeRowIDKway:
		resp = mergeRowIDParts(qs, rt.limit)
		c.rowidMerges.Add(1)
	default:
		resp = mergeRowParts(qs, rt.limit)
	}
	return resp, resp.RowCount
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	c.serve(w, r, &req, func() (route, error) {
		filters, err := parseWhereList(req.Where)
		if err != nil {
			return route{}, err
		}
		shards, err := c.shardsFor(req.Projection, filters)
		if err != nil {
			return route{}, err
		}
		rt := route{endpoint: "query", req: req, shards: shards, kind: mergeConcat,
			shape: req.shape(), trace: req.Trace, limit: resolveLimit(req.Limit)}
		pl, _ := c.manifest.Placement(req.Projection)
		aggregating := req.GroupBy != "" && req.AggCol != ""
		shardReq := req
		// Limit pushdown: each shard's rows are a global-order prefix source
		// (range shards: shard order is global order; key-partitioned shards:
		// a global-order subsequence, so any of the first lim global rows has
		// fewer than lim predecessors on its own shard). Finalized aggregations
		// push the limit too — shards emit sorted by key, and the global
		// smallest lim keys are among the union of per-shard smallest lim.
		// Statistics-merged aggregations need every group regardless.
		shardReq.Limit = rt.limit
		switch {
		case aggregating && pl.KeyPartitioned() && req.GroupBy == pl.Partition.Column:
			// Finalization pushdown: when the group-by key IS the partition
			// key, group keys are disjoint across shards — no group spans two
			// shards — so each shard's finalized rows (a plain aggregation,
			// sorted by key) are the global answer for its groups. No
			// statistics wire, no AbsorbGroups pass.
			rt.kind = mergeFinalizedAgg
		case aggregating:
			rt.kind = mergeAggStatistics
			shardReq.Partial, shardReq.Limit = true, -1
			if req.Agg != "" {
				if rt.fn, err = operators.ParseAggFunc(req.Agg); err != nil {
					return route{}, err
				}
			}
		case pl.KeyPartitioned():
			rt.kind = mergeRowIDKway
			shardReq.RowIDs = true
		default:
			shardReq.Partial = true
		}
		rt.body = shardReq
		return rt, nil
	})
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	c.serve(w, r, &req, func() (route, error) {
		filters, err := parseWhereList(req.Where)
		if err != nil {
			return route{}, err
		}
		leftPl, lok := c.manifest.Placement(req.Left)
		rightPl, rok := c.manifest.Placement(req.Right)
		if !lok || !rok {
			return route{}, fmt.Errorf("join tables %q, %q must both be in the shard manifest", req.Left, req.Right)
		}
		// Shard-local join correctness: every shard probes its slice of the
		// outer table against everything its key could match. Two ways to get
		// that: the inner side is replicated (every shard holds the full inner
		// table), or both sides are CO-PARTITIONED on the join keys — the same
		// hash scheme with equal shard counts puts every matching inner row on
		// the probing row's own shard, so no replication is needed. Anything
		// else with a sharded right side cannot run shard-local (or there is
		// only one shard and locality is trivial).
		copart := copartitioned(leftPl, rightPl, req.LeftKey, req.RightKey)
		if rightPl.Sharded && c.manifest.NumShards > 1 && !copart {
			return route{}, copartitionError(req, leftPl, rightPl)
		}
		shards, err := c.shardsFor(req.Left, filters)
		if err != nil {
			return route{}, err
		}
		rt := route{endpoint: "join", req: req, shards: shards, kind: mergeConcat,
			shape: req.shape(), trace: req.Trace, limit: resolveLimit(req.Limit), copart: copart}
		shardReq := req
		shardReq.Limit = rt.limit
		if leftPl.KeyPartitioned() {
			rt.kind, shardReq.RowIDs = mergeRowIDKway, true
		}
		rt.body = shardReq
		return rt, nil
	})
}

func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	c.serve(w, r, &raw, func() (route, error) {
		// One body shape for both, as on the engine: a "right" table makes it
		// a join explain, routed by its outer (left) table.
		var j JoinRequest
		if err := json.Unmarshal(raw, &j); err != nil {
			return route{}, err
		}
		rt := route{endpoint: "explain", req: raw, body: raw, kind: mergeExplain,
			outer: j.Left, shape: j.shape(), trace: j.Trace}
		if j.Right == "" {
			var q QueryRequest
			if err := json.Unmarshal(raw, &q); err != nil {
				return route{}, err
			}
			rt.outer, rt.shape = q.Projection, q.shape()
		}
		// Explain fans to every shard holding rows — no pruning, the point is
		// to see each shard's plan.
		var err error
		rt.shards, err = c.shardsFor(rt.outer, nil)
		return rt, err
	})
}

// mergeExplainParts concatenates the shard plan trees under per-shard
// global row-range (or hash-scheme) headers; modeled costs and workers add.
func (c *Coordinator) mergeExplainParts(outer string, shards []int, parts []*shardPart) *ExplainResponse {
	pl, _ := c.manifest.Placement(outer)
	out := &ExplainResponse{Strategy: parts[0].Strategy}
	var tree strings.Builder
	for i, p := range parts {
		k := shards[i]
		if pl.KeyPartitioned() {
			fmt.Fprintf(&tree, "── shard %d: %s hash(%s) mod %d == %d @ %s ──\n%s",
				k, outer, pl.Partition.Column, pl.Partition.Shards, k, c.shards[k].url, p.Tree)
		} else {
			rg := pl.Ranges[k]
			fmt.Fprintf(&tree, "── shard %d: %s rows [%d,%d) @ %s ──\n%s",
				k, outer, rg.Start, rg.End, c.shards[k].url, p.Tree)
		}
		out.ModeledUS += p.ModeledUS
		out.Workers += p.Workers
		// RowCount sums shard partials; for aggregations this counts
		// per-shard groups, an upper bound on the merged group count.
		out.RowCount += p.RowCount
	}
	out.Tree = tree.String()
	return out
}

// copartitioned reports whether a join's two sides are co-partitioned on
// its join keys: both hash-partitioned on exactly those keys under the same
// hash scheme with equal shard counts, so shard k's left rows can only
// match shard k's right rows.
func copartitioned(leftPl, rightPl storage.ShardPlacement, leftKey, rightKey string) bool {
	return leftPl.KeyPartitioned() && rightPl.KeyPartitioned() &&
		leftPl.Partition.Column == leftKey &&
		rightPl.Partition.Column == rightKey &&
		leftPl.Partition.Shards == rightPl.Partition.Shards &&
		leftPl.Partition.Hash == rightPl.Partition.Hash
}

// copartitionError explains exactly why a sharded right side cannot join
// shard-locally: which projection lacks compatible partitioning, on which
// column, and any shard-count or hash-scheme mismatch.
func copartitionError(req JoinRequest, leftPl, rightPl storage.ShardPlacement) error {
	desc := func(name, key string, pl storage.ShardPlacement) string {
		switch {
		case pl.KeyPartitioned() && pl.Partition.Column != key:
			return fmt.Sprintf("%q is partitioned on %q, not its join key %q", name, pl.Partition.Column, key)
		case pl.KeyPartitioned():
			return fmt.Sprintf("%q is partitioned on %q into %d shards (%s)", name, pl.Partition.Column, pl.Partition.Shards, pl.Partition.Hash)
		case pl.Sharded:
			return fmt.Sprintf("%q is range-sharded with no partition key", name)
		default:
			return fmt.Sprintf("%q is replicated", name)
		}
	}
	detail := desc(req.Left, req.LeftKey, leftPl) + "; " + desc(req.Right, req.RightKey, rightPl)
	if leftPl.KeyPartitioned() && rightPl.KeyPartitioned() && leftPl.Partition.Shards != rightPl.Partition.Shards {
		detail += fmt.Sprintf("; shard counts differ (%d vs %d)", leftPl.Partition.Shards, rightPl.Partition.Shards)
	}
	return fmt.Errorf(
		"join right side %q is sharded without co-partitioning on the join keys (%s.%s = %s.%s): %s. "+
			"Shard-local joins need the right side replicated, or both sides hash-partitioned on the join keys "+
			"with equal shard counts (csgen -shards N -partition-key %s.%s,%s.%s)",
		req.Right, req.Left, req.LeftKey, req.Right, req.RightKey, detail,
		req.Left, req.LeftKey, req.Right, req.RightKey)
}

// newMergedResponse starts a merged response from the first partial's
// columns and strategy, with the cache-hit flags set for sumPartCounters to
// AND into (the merged response came from caches only if every partial did).
func newMergedResponse(parts []*QueryResponse) *QueryResponse {
	return &QueryResponse{
		Columns:        parts[0].Columns,
		Strategy:       parts[0].Strategy,
		Rows:           [][]int64{},
		ResultCacheHit: true,
		PlanCacheHit:   true,
		BuildCacheHit:  true,
	}
}

// mergeRowParts merges selection/join partials: rows concatenate in shard
// order (shard order is global row order) truncated to the limit, and
// counters fold as in sumPartCounters (each shard's checksum folds ALL its
// output rows, so the sum equals the single-engine fold).
func mergeRowParts(parts []*QueryResponse, limit int) *QueryResponse {
	out := newMergedResponse(parts)
	for _, p := range parts {
		take := p.Rows
		if limit > 0 {
			if room := limit - len(out.Rows); len(take) > room {
				take = take[:room]
			}
		}
		out.Rows = append(out.Rows, take...)
		sumPartCounters(out, p)
	}
	return out
}

// sumPartCounters folds one shard partial's counters into the merged
// response: row counts, checksums and execution counters add, queue time
// takes the max (shards queue concurrently), cache-hit flags AND, spill
// flags OR.
func sumPartCounters(out, p *QueryResponse) {
	out.RowCount += p.RowCount
	out.Checksum += p.Checksum
	out.Workers += p.Workers
	out.Morsels += p.Morsels
	if p.Queued > out.Queued {
		out.Queued = p.Queued
	}
	out.EstCostUS += p.EstCostUS
	out.ResultCacheHit = out.ResultCacheHit && p.ResultCacheHit
	out.PlanCacheHit = out.PlanCacheHit && p.PlanCacheHit
	out.BuildCacheHit = out.BuildCacheHit && p.BuildCacheHit
	out.Partitions += p.Partitions
	out.Probes += p.Probes
	out.BuildTuples += p.BuildTuples
	out.DeferredFetches += p.DeferredFetches
	out.ReservedBytes += p.ReservedBytes
	out.Spilled = out.Spilled || p.Spilled
	out.SpilledPartitions += p.SpilledPartitions
	out.SpillBytes += p.SpillBytes
}

// mergeRowIDParts merges key-partitioned selection/join partials: each
// shard's rows are a global-order subsequence tagged with global row ids
// (one per row — decodeParts rejects partials where they do not pair up),
// so a k-way merge by ascending row id restores exactly the global row
// order (every global row lives on exactly one shard — ids never collide
// across partials). Counters fold as in mergeRowParts.
func mergeRowIDParts(parts []*QueryResponse, limit int) *QueryResponse {
	out := newMergedResponse(parts)
	idx := make([]int, len(parts))
	for limit <= 0 || len(out.Rows) < limit {
		best := -1
		for p, part := range parts {
			if idx[p] >= len(part.Rows) {
				continue
			}
			if best < 0 || part.RowIDs[idx[p]] < parts[best].RowIDs[idx[best]] {
				best = p
			}
		}
		if best < 0 {
			break
		}
		out.Rows = append(out.Rows, parts[best].Rows[idx[best]])
		idx[best]++
	}
	for _, p := range parts {
		sumPartCounters(out, p)
	}
	return out
}

// mergeFinalizedAggParts merges a partition-key aggregation: group keys are
// disjoint across shards, so the shards' finalized rows (each sorted by
// key) concat in shard order and one coordinator-side sort by the group-key
// column restores the global key order — no statistics shipped, no
// AbsorbGroups pass, and the payload is the final rows instead of
// per-group sum/count/min/max. Row counts and checksums add exactly
// because no group spans two shards.
func mergeFinalizedAggParts(parts []*QueryResponse, limit int) *QueryResponse {
	out := newMergedResponse(parts)
	for _, p := range parts {
		out.Rows = append(out.Rows, p.Rows...)
		sumPartCounters(out, p)
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i][0] < out.Rows[j][0] })
	if limit > 0 && len(out.Rows) > limit {
		out.Rows = out.Rows[:limit]
	}
	return out
}

// mergeAggParts merges aggregation partials: every shard's exported
// per-group statistics are absorbed into one fresh Aggregator — the wire
// form of the executor's Aggregator.Merge — and re-emitted sorted by key,
// identical to aggregating the un-sharded table. Counters fold as in
// mergeRowParts, but the row count and checksum are recomputed from the
// merged output (shards' groups overlap), the checksum folding it exactly
// as the engine's result drain does.
func mergeAggParts(parts []*QueryResponse, fn operators.AggFunc, limit int) *QueryResponse {
	out := newMergedResponse(parts)
	agg := operators.NewAggregator(fn)
	for _, p := range parts {
		agg.AbsorbGroups(p.Groups)
		sumPartCounters(out, p)
	}
	res := agg.Emit(out.Columns[0], out.Columns[1])
	out.RowCount, out.Checksum = res.NumRows(), 0
	for i := 0; i < out.RowCount; i++ {
		for c := range res.Cols {
			out.Checksum += res.Cols[c][i]
		}
	}
	shown := out.RowCount
	if limit > 0 && shown > limit {
		shown = limit
	}
	out.Rows = make([][]int64, shown)
	for i := range out.Rows {
		out.Rows[i] = res.Row(i)
	}
	return out
}

// CoordinatorStats is the coordinator's /stats snapshot: its own fan-out
// counters, every shard's live Stats, and a field-wise numeric sum of the
// shard snapshots.
type CoordinatorStats struct {
	NumShards     int      `json:"num_shards"`
	Endpoints     []string `json:"endpoints"`
	Queries       int64    `json:"queries"`
	FannedOut     int64    `json:"fanned_out"`
	RoutedSingle  int64    `json:"routed_single"`
	ShardRequests int64    `json:"shard_requests"`
	PrunedShards  int64    `json:"pruned_shards"`
	ShardErrors   int64    `json:"shard_errors"`
	AggMerges     int64    `json:"agg_merges"`
	// CopartJoins counts joins fanned out shard-local with no inner
	// replication (both sides co-partitioned on the join keys); the ci smoke
	// greps it. FinalizedAggs counts partition-key aggregations merged from
	// finalized shard rows (no statistics wire); RowIDMerges counts
	// key-partitioned fan-outs restored to global row order by row id.
	CopartJoins   int64 `json:"copartitioned_joins"`
	FinalizedAggs int64 `json:"finalized_aggs"`
	RowIDMerges   int64 `json:"rowid_merges"`
	// Shards holds each shard's own /stats document (null for a shard that
	// did not answer); ShardTotals is their field-wise numeric sum.
	Shards      []json.RawMessage `json:"shards"`
	ShardTotals map[string]any    `json:"shard_totals"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	st := CoordinatorStats{
		NumShards:     c.manifest.NumShards,
		Queries:       c.queries.Load(),
		FannedOut:     c.fannedOut.Load(),
		RoutedSingle:  c.routedSingle.Load(),
		ShardRequests: c.shardRequests.Load(),
		PrunedShards:  c.prunedShards.Load(),
		ShardErrors:   c.shardErrors.Load(),
		AggMerges:     c.aggMerges.Load(),
		CopartJoins:   c.copartJoins.Load(),
		FinalizedAggs: c.finalizedAggs.Load(),
		RowIDMerges:   c.rowidMerges.Load(),
		Shards:        make([]json.RawMessage, len(c.shards)),
		ShardTotals:   map[string]any{},
	}
	for k, rep := range c.getShards(r.Context(), "/stats") {
		st.Endpoints = append(st.Endpoints, c.shards[k].url)
		if rep.status != http.StatusOK {
			continue
		}
		st.Shards[k] = rep.body
		var doc map[string]any
		if json.Unmarshal(rep.body, &doc) == nil {
			sumJSONNumbers(st.ShardTotals, doc)
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// sumJSONNumbers folds src's numeric fields into dst, recursing through
// nested objects — the shard-count-agnostic way to aggregate shard /stats
// documents without hand-maintaining a field list.
func sumJSONNumbers(dst map[string]any, src map[string]any) {
	for k, v := range src {
		switch sv := v.(type) {
		case float64:
			cur, _ := dst[k].(float64)
			dst[k] = cur + sv
		case map[string]any:
			sub, ok := dst[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				dst[k] = sub
			}
			sumJSONNumbers(sub, sv)
		}
	}
}

// handleReady reports coordinator readiness: ready only when EVERY shard's
// /readyz answers 200, so a load balancer stops routing to the coordinator
// while any shard drains or sheds — a scatter-gather request needs all of
// them.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	type shardReady struct {
		Shard int    `json:"shard"`
		URL   string `json:"url"`
		Ready bool   `json:"ready"`
	}
	out := make([]shardReady, len(c.shards))
	ready := true
	for k, rep := range c.getShards(r.Context(), "/readyz") {
		out[k] = shardReady{Shard: k, URL: c.shards[k].url, Ready: rep.status == http.StatusOK}
		ready = ready && out[k].Ready
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "shards": out})
}

// getShards GETs path from every shard in parallel (status 0 for a shard
// that did not answer). These control-plane probes bypass callShard so that
// shard_requests and cs_shard_request_seconds keep counting only fan-out.
func (c *Coordinator) getShards(ctx context.Context, path string) []shardReply {
	out := make([]shardReply, len(c.shards))
	var wg sync.WaitGroup
	for k := range c.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out[k] = c.roundTrip(ctx, http.MethodGet, path, nil, k, "")
		}(k)
	}
	wg.Wait()
	return out
}

// String renders a one-line coordinator description.
func (c *Coordinator) String() string {
	return fmt.Sprintf("service.Coordinator{shards=%d, projections=%v, timeout=%s}",
		c.manifest.NumShards, slices.Sorted(maps.Keys(c.manifest.Projections)), c.timeout)
}

// Package service is the concurrent query-serving subsystem layered over
// the matstore engine: it turns the one-query-at-a-time executor of the
// paper reproduction into a server that runs many queries against one DB,
// one buffer pool and one global worker budget at once.
//
// Four cooperating parts:
//
//   - Admission control & worker sharing (admission.go): requests enter
//     through sessions and an admission gate (at most MaxConcurrent in
//     flight; the rest queue), and each admitted query's morsel parallelism
//     is sized from the analytical model's cost estimate (big scans wide,
//     point lookups narrow), clamped so the sum of grants never exceeds the
//     global WorkerBudget. Admission waits are context-aware: a cancelled
//     request leaves the queue immediately.
//   - A result cache (resultcache.go): repeated identical requests are
//     answered from a byte-accounted LRU of served responses without
//     admitting to the worker pool at all, invalidated per projection by
//     generation bumps.
//   - Shared execution caches: a keyed join-build cache
//     (operators.BuildCache) shares partitioned hash sides across queries
//     under a byte budget with LRU eviction and generation invalidation,
//     and a plan cache (plancache.go) skips BuildPlan for repeated query
//     shapes.
//   - A serving front-end (http.go, cmd/csserve): HTTP JSON endpoints
//     /query, /join, /explain and /stats over a Server.
//
// Sharing caches and derating parallelism are pure execution choices — the
// paper's core invariant — so every response is byte-identical to serial
// single-query execution; the concurrent differential suite locks that in.
package service

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"matstore"
	"matstore/internal/buffer"
	"matstore/internal/core"
	"matstore/internal/memory"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/storage"
)

// DefaultBuildCacheBytes bounds the join-build cache when Config leaves it 0.
const DefaultBuildCacheBytes = 64 << 20

// DefaultPlanCacheEntries bounds the plan cache when Config leaves it 0.
const DefaultPlanCacheEntries = 256

// DefaultGrantSliceMicros is the modeled-µs-per-worker slice of cost-aware
// grant sizing when Config leaves it 0: a request modeled at N×slice µs asks
// for N workers (clamped to [1, budget]).
const DefaultGrantSliceMicros = 100

// Config tunes a Server.
type Config struct {
	// MaxConcurrent is the admission limit: at most this many requests
	// execute at once, the rest queue. 0 derives 2× the worker budget
	// (enough queueing to keep workers saturated without unbounded pile-up).
	MaxConcurrent int
	// WorkerBudget is the global morsel-worker budget divided across
	// in-flight queries (0 = one per CPU).
	WorkerBudget int
	// BuildCacheBytes bounds the shared join-build cache (0 = the 64 MiB
	// default, negative = cache disabled).
	BuildCacheBytes int64
	// PlanCacheEntries bounds the plan cache (0 = the 256-entry default,
	// negative = cache disabled).
	PlanCacheEntries int
	// ResultCacheBytes bounds the served-response cache (0 = the 32 MiB
	// default, negative = cache disabled).
	ResultCacheBytes int64
	// ResultCacheMinCostUS is the cache's cost-aware admission threshold:
	// only responses whose modeled cost estimate is at least this many µs
	// are cached (0 = cache everything). Cheap queries re-execute faster
	// than their results amortize cache space and evictions.
	ResultCacheMinCostUS float64
	// GrantSliceMicros is the modeled cost (µs) one worker is expected to
	// absorb when sizing admission grants (0 = the 100 µs default, negative
	// = cost-aware sizing disabled; every grant uses the uniform fair share).
	GrantSliceMicros float64
	// MemoryBudgetBytes turns on the byte-budget memory governor: every join
	// reserves its predicted build bytes before admission, runs in Grace
	// spill mode under a smaller reservation when the estimate doesn't fit,
	// queues when the spill grant doesn't fit either, and is shed (HTTP 503)
	// past the waiter cap. 0 disables memory governance entirely.
	MemoryBudgetBytes int64
	// SpillDir is where spill-mode joins and demoted cache builds write temp
	// files ("" = the DB's .spill directory). Only used when
	// MemoryBudgetBytes > 0.
	SpillDir string
	// Logger receives structured JSON log lines (slow queries, request
	// errors). Nil disables logging; all call sites are nil-safe.
	Logger *obs.Logger
	// SlowQueryMicros is the slow-query log threshold: a request whose wall
	// time reaches it is logged with its query shape, trace summary and
	// modeled-vs-observed delta. 0 disables the slow-query log.
	SlowQueryMicros int64
}

// Server serves concurrent queries against one matstore.DB.
type Server struct {
	db    *matstore.DB
	exec  *core.Executor
	store *storage.DB
	cfg   Config

	gov      *governor
	mem      *memory.Governor // nil when memory governance is off
	spillDir string
	builds   *operators.BuildCache // nil when disabled
	plans    *planCache            // nil when disabled
	results  *resultCache          // nil when disabled

	sessions   atomic.Int64
	queries    atomic.Int64
	planBuilds atomic.Int64

	draining     atomic.Bool
	spilledJoins atomic.Int64
	spilledParts atomic.Int64
	spillBytes   atomic.Int64

	start   time.Time
	metrics *serverMetrics
	logger  *obs.Logger
}

// New wraps an open DB in a serving layer.
func New(db *matstore.DB, cfg Config) *Server {
	// Resolve every default before cfg is captured, so Config() reports the
	// configuration actually in effect.
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * cfg.WorkerBudget
	}
	if cfg.BuildCacheBytes == 0 {
		cfg.BuildCacheBytes = DefaultBuildCacheBytes
	}
	if cfg.PlanCacheEntries == 0 {
		cfg.PlanCacheEntries = DefaultPlanCacheEntries
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = DefaultResultCacheBytes
	}
	if cfg.GrantSliceMicros == 0 {
		cfg.GrantSliceMicros = DefaultGrantSliceMicros
	}
	s := &Server{
		db:     db,
		exec:   db.Exec(),
		store:  db.Storage(),
		cfg:    cfg,
		gov:    newGovernor(cfg.MaxConcurrent, cfg.WorkerBudget, cfg.GrantSliceMicros),
		start:  time.Now(),
		logger: cfg.Logger,
	}
	if cfg.BuildCacheBytes > 0 {
		s.builds = operators.NewBuildCache(cfg.BuildCacheBytes)
	}
	if cfg.PlanCacheEntries > 0 {
		s.plans = newPlanCache(cfg.PlanCacheEntries)
	}
	if cfg.ResultCacheBytes > 0 {
		s.results = newResultCache(cfg.ResultCacheBytes)
		s.results.minCostUS = cfg.ResultCacheMinCostUS
	}
	if cfg.MemoryBudgetBytes > 0 {
		s.mem = memory.New(cfg.MemoryBudgetBytes, 0)
		s.spillDir = cfg.SpillDir
		if s.spillDir == "" {
			s.spillDir = db.SpillDir()
		}
		if s.builds != nil {
			// Under memory governance, evicted warm builds demote to on-disk
			// hash entries instead of being discarded outright.
			s.builds.EnableDemotion(s.spillDir, 0)
		}
	}
	s.metrics = newServerMetrics(s)
	return s
}

// Metrics returns the server's Prometheus registry (the /metrics backing).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// DB returns the wrapped database.
func (s *Server) DB() *matstore.DB { return s.db }

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// InvalidateProjection marks a projection's data as changed: cached results
// over it and cached join builds of it are dropped by generation bumps, and
// the plan cache is cleared (plans pin resolved column handles, so
// invalidation is conservative).
func (s *Server) InvalidateProjection(name string) {
	if s.results != nil {
		s.results.invalidate(name)
	}
	if s.builds != nil {
		s.builds.Invalidate(name)
	}
	if s.plans != nil {
		s.plans.clear()
	}
}

// MarkDraining flips /readyz to not-ready so load balancers stop routing new
// work here; in-flight and already-queued requests still complete. Called by
// the serving binary on SIGTERM before http.Server.Shutdown.
func (s *Server) MarkDraining() { s.draining.Store(true) }

// Draining reports whether MarkDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// MemoryPressured reports whether requests are queued for memory right now.
func (s *Server) MemoryPressured() bool { return s.mem != nil && s.mem.Pressured() }

// MemoryStats is the /stats memory block: the governor's reservation
// counters plus the server's cumulative spill activity.
type MemoryStats struct {
	memory.Stats
	SpilledJoins      int64 `json:"spilled_joins"`
	SpilledPartitions int64 `json:"spilled_partitions"`
	SpillBytes        int64 `json:"spill_bytes"`
}

// Stats is the /stats snapshot: admission, worker and cache counters.
type Stats struct {
	// Process identity: version, runtime, pid and serving uptime.
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	PID           int     `json:"pid"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// EndpointRequests counts served HTTP requests per endpoint (all
	// outcomes summed).
	EndpointRequests map[string]int64 `json:"endpoint_requests,omitempty"`
	Sessions         int64            `json:"sessions"`
	Queries          int64            `json:"queries"`
	Admission        AdmissionStats   `json:"admission"`
	Memory           MemoryStats      `json:"memory"`
	// PlanBuilds counts BuildPlan/BuildJoinPlan invocations; with the plan
	// cache on it lags Queries by exactly the hit count.
	PlanBuilds  int64                     `json:"plan_builds"`
	ResultCache ResultCacheStats          `json:"result_cache"`
	PlanCache   PlanCacheStats            `json:"plan_cache"`
	BuildCache  operators.BuildCacheStats `json:"build_cache"`
	Pool        buffer.Stats              `json:"buffer_pool"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Version:       obs.Version,
		GoVersion:     runtime.Version(),
		PID:           os.Getpid(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Sessions:      s.sessions.Load(),
		Queries:       s.queries.Load(),
		Admission:     s.gov.snapshot(),
		PlanBuilds:    s.planBuilds.Load(),
		Pool:          s.db.PoolStats(),
	}
	if s.metrics != nil {
		reqs := map[string]int64{}
		for _, sm := range s.metrics.requests.Snapshot() {
			if len(sm.Labels) > 0 {
				reqs[sm.Labels[0].Value] += int64(sm.Value)
			}
		}
		if len(reqs) > 0 {
			st.EndpointRequests = reqs
		}
	}
	if s.mem != nil {
		st.Memory = MemoryStats{
			Stats:             s.mem.Stats(),
			SpilledJoins:      s.spilledJoins.Load(),
			SpilledPartitions: s.spilledParts.Load(),
			SpillBytes:        s.spillBytes.Load(),
		}
	}
	if s.results != nil {
		st.ResultCache = s.results.snapshot()
	}
	if s.plans != nil {
		st.PlanCache = s.plans.snapshot()
	}
	if s.builds != nil {
		st.BuildCache = s.builds.Stats()
	}
	return st
}

// admit passes the admission gate under an "admission" span and returns the
// granted parallelism with its release. The grant and queue time land on
// info, the span, and the live queue-wait and grant-width histograms (both
// unlabeled, so two allocation-free atomic observations).
func (s *Server) admit(ctx context.Context, span *obs.Span, parallelism int, info *Info) (int, func(), error) {
	aspan := span.Child("admission")
	ai, release, err := s.gov.admit(ctx, parallelism, info.EstCostUS)
	aspan.End()
	if err != nil {
		return 0, nil, err
	}
	info.Workers, info.Queued = ai.Grant, ai.AdmissionWait+ai.WorkerWait
	aspan.SetAttr("grant", ai.Grant)
	aspan.SetAttr("queued_ns", info.Queued.Nanoseconds())
	if s.metrics != nil {
		s.metrics.queueWait.Observe(info.Queued.Seconds())
		s.metrics.grants.Observe(float64(ai.Grant))
	}
	return ai.Grant, release, nil
}

// RequestError marks a failure attributable to the request itself — unknown
// projection or column, malformed query shape — rather than the server. The
// HTTP layer maps it to 400 Bad Request; execution failures stay 500.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// badRequest wraps a non-nil error as a RequestError.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return &RequestError{Err: err}
}

// Session is one client's handle on the server; all request methods go
// through admission control. Sessions are safe for concurrent use and cheap
// to create (the HTTP front-end makes one per request).
type Session struct {
	srv *Server
	// ID numbers the session (diagnostics only).
	ID int64
}

// NewSession opens a session.
func (s *Server) NewSession() *Session {
	return &Session{srv: s, ID: s.sessions.Add(1)}
}

// Info describes how the service executed one request.
type Info struct {
	Session int64 `json:"session"`
	// Workers is the granted (derated) morsel parallelism (0 when the
	// request was served from the result cache without admission).
	Workers int `json:"workers"`
	// Queued is the time spent blocked at the admission gate (admission
	// slot wait plus worker wait).
	Queued time.Duration `json:"queued_nanos"`
	// EstCostUS is the analytical model's total cost estimate the grant
	// sizer used (0 when unavailable).
	EstCostUS float64 `json:"est_cost_us"`
	// ResultCacheHit reports the request was answered entirely from the
	// result cache; PlanCacheHit and BuildCacheHit report shared-cache
	// reuse during execution.
	ResultCacheHit bool `json:"result_cache_hit"`
	PlanCacheHit   bool `json:"plan_cache_hit"`
	BuildCacheHit  bool `json:"build_cache_hit"`
	// ReservedBytes is the memory reservation the request held while running
	// (0 with memory governance off); Spilled reports the governor forced the
	// join's build side into Grace spill mode.
	ReservedBytes int64 `json:"reserved_bytes,omitempty"`
	Spilled       bool  `json:"spilled,omitempty"`
}

// SelectResult is a served selection/aggregation response.
type SelectResult struct {
	Res   *matstore.Result
	Stats *matstore.Stats
	Info  Info
}

// JoinResult is a served join response.
type JoinResult struct {
	Res   *matstore.Result
	Stats *matstore.JoinStats
	Info  Info
}

// Select runs a selection/aggregation through the result cache, admission
// control and the plan cache. The query's Parallelism is a ceiling on the
// granted worker share (0 = take the full cost-sized share). Cancelling ctx
// abandons the request at the admission gate or between plan phases.
func (c *Session) Select(ctx context.Context, projection string, q matstore.Query, strat matstore.Strategy) (*SelectResult, error) {
	s := c.srv
	s.queries.Add(1)
	info := Info{Session: c.ID}
	span := obs.SpanFromContext(ctx)
	traced := span != nil

	var key string
	if s.results != nil || s.plans != nil {
		key = selectKey(projection, q, strat)
	}
	var gens []uint64
	if s.results != nil {
		cspan := span.Child("result_cache.lookup")
		e, hit := s.results.get(key)
		cspan.SetAttr("hit", hit)
		cspan.End()
		if hit {
			info.ResultCacheHit = true
			return &SelectResult{Res: e.res, Stats: e.selStats, Info: info}, nil
		}
		gens = s.results.generations([]string{projection})
	}
	if est, err := s.db.EstimateSelectCost(projection, q, strat); err == nil {
		info.EstCostUS = est.Total()
	}

	grant, release, err := s.admit(ctx, span, q.Parallelism, &info)
	if err != nil {
		return nil, err
	}
	defer release()

	p, err := s.store.Projection(projection)
	if err != nil {
		return nil, badRequest(err)
	}
	// Traced requests bypass the plan cache on BOTH sides (no get, no put):
	// the per-node Observed counters must describe exactly this run, and a
	// cached plan accumulates counters across every traced run that touches
	// it (the same reason Explain builds fresh trees).
	pspan := span.Child("plan.build")
	var pl *plan.Plan
	if s.plans != nil && !traced {
		if cached, ok := s.plans.get(key); ok {
			pl, info.PlanCacheHit = cached, true
		} else {
			if pl, err = s.buildSelect(p, q, strat); err != nil {
				return nil, badRequest(err)
			}
			s.plans.put(key, pl)
		}
	} else if pl, err = s.buildSelect(p, q, strat); err != nil {
		return nil, badRequest(err)
	}
	pspan.SetAttr("cache_hit", info.PlanCacheHit)
	pspan.End()
	if err := ctx.Err(); err != nil {
		return nil, err // cancelled between build and run: the slot releases unused
	}
	espan := span.Child("execute")
	var res *matstore.Result
	var stats *matstore.Stats
	if traced {
		consts := s.db.Constants()
		consts.AnnotatePlan(pl, true)
		res, stats, err = s.exec.RunPlanWith(pl, strat, grant,
			plan.RunOptions{Ctx: ctx, Observe: true, Trace: espan})
	} else {
		res, stats, err = s.exec.RunPlan(pl, strat, grant, false)
	}
	espan.End()
	if err != nil {
		return nil, err
	}
	if s.results != nil {
		s.results.put(&resultEntry{
			key: key, projs: []string{projection}, gens: gens,
			bytes: resultBytes(key, res), costUS: info.EstCostUS,
			res: res, selStats: stats,
		})
	}
	return &SelectResult{Res: res, Stats: stats, Info: info}, nil
}

func (s *Server) buildSelect(p *storage.Projection, q matstore.Query, strat matstore.Strategy) (*plan.Plan, error) {
	s.planBuilds.Add(1)
	return s.exec.BuildPlan(p, q, strat)
}

// Join runs an equi-join through the result cache, admission control and
// both shared execution caches: the plan cache skips BuildJoinPlan for a
// repeated shape, and the build cache shares the partitioned hash side
// across queries over the same inner table.
func (c *Session) Join(ctx context.Context, left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) (*JoinResult, error) {
	s := c.srv
	s.queries.Add(1)
	info := Info{Session: c.ID}
	span := obs.SpanFromContext(ctx)
	traced := span != nil

	var key string
	if s.results != nil || s.plans != nil {
		key = joinKey(left, right, q, rs)
	}
	var gens []uint64
	projs := []string{left, right}
	if s.results != nil {
		cspan := span.Child("result_cache.lookup")
		e, hit := s.results.get(key)
		cspan.SetAttr("hit", hit)
		cspan.End()
		if hit {
			info.ResultCacheHit = true
			return &JoinResult{Res: e.res, Stats: e.joinStats, Info: info}, nil
		}
		gens = s.results.generations(projs)
	}
	if est, err := s.db.EstimateJoinCost(left, right, q, rs); err == nil {
		info.EstCostUS = est.Total()
	}

	// Memory admission comes BEFORE the worker-slot gate (one consistent
	// acquisition order: bytes, then slots — a memory waiter never sits on a
	// worker slot). The reservation is held until this request finishes, on
	// every path out.
	memEst, _ := s.db.EstimateJoinMemory(right, q, rs)
	mspan := span.Child("memory.reserve")
	resv, spillCfg, err := s.admitMemory(ctx, memEst)
	mspan.End()
	if err != nil {
		return nil, err
	}
	defer resv.Release()
	mspan.SetAttr("est_bytes", memEst)
	if resv != nil {
		info.ReservedBytes = resv.Bytes()
		mspan.SetAttr("reserved_bytes", resv.Bytes())
	}
	if spillCfg != nil {
		mspan.SetAttr("spill_mode", true)
	}

	grant, release, err := s.admit(ctx, span, q.Parallelism, &info)
	if err != nil {
		return nil, err
	}
	defer release()

	pspan := span.Child("plan.build")
	var pl *plan.Plan
	if s.plans != nil && !traced {
		if cached, ok := s.plans.get(key); ok {
			pl, info.PlanCacheHit = cached, true
		} else {
			if pl, err = s.buildJoin(left, right, q, rs); err != nil {
				return nil, badRequest(err)
			}
			s.plans.put(key, pl)
		}
	} else if pl, err = s.buildJoin(left, right, q, rs); err != nil {
		return nil, badRequest(err)
	}
	pspan.SetAttr("cache_hit", info.PlanCacheHit)
	pspan.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	espan := span.Child("execute")
	if traced {
		consts := s.db.Constants()
		consts.AnnotatePlan(pl, true)
	}
	res, stats, err := s.exec.RunJoinPlanWith(pl, grant,
		plan.RunOptions{Ctx: ctx, Observe: traced, Spill: spillCfg, Trace: espan})
	espan.End()
	if err != nil {
		return nil, err
	}
	info.BuildCacheHit = stats.Join.BuildCacheHit
	if stats.Join.Spilled {
		info.Spilled = true
		s.spilledJoins.Add(1)
		s.spilledParts.Add(int64(stats.Join.SpilledParts))
		s.spillBytes.Add(stats.Join.SpillBytes)
	}
	if s.results != nil {
		s.results.put(&resultEntry{
			key: key, projs: projs, gens: gens,
			bytes: resultBytes(key, res), costUS: info.EstCostUS,
			res: res, joinStats: stats,
		})
	}
	return &JoinResult{Res: res, Stats: stats, Info: info}, nil
}

// spillGrantFloor is the smallest spill-mode reservation admitMemory asks
// for: enough for one resident partition's working set plus frame buffers.
const spillGrantFloor = 64 << 10

// admitMemory resolves a join's byte reservation against the governor.
// Outcomes, in order: memory governance off or no estimate → run ungoverned;
// the full estimate fits right now → in-memory grant (nil SpillConfig); else
// a spill-mode grant of min(estimate, budget/4) clamped to
// [spillGrantFloor, budget] — preferring bounded spill over waiting for the
// full footprint — which may queue briefly and is shed (memory.ErrShed) past
// the waiter cap. The caller releases the reservation on every path.
func (s *Server) admitMemory(ctx context.Context, est int64) (*memory.Reservation, *operators.SpillConfig, error) {
	if s.mem == nil || est <= 0 {
		return nil, nil, nil
	}
	if r := s.mem.TryReserve(est); r != nil {
		return r, nil, nil
	}
	budget := s.mem.Budget()
	grant := est
	if quarter := budget / 4; grant > quarter {
		grant = quarter
	}
	if grant < spillGrantFloor {
		grant = spillGrantFloor
	}
	if grant > budget {
		grant = budget
	}
	r, err := s.mem.Reserve(ctx, grant)
	if err != nil {
		return nil, nil, err
	}
	return r, &operators.SpillConfig{BudgetBytes: grant, EstBytes: est, Dir: s.spillDir}, nil
}

func (s *Server) buildJoin(left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) (*plan.Plan, error) {
	lp, err := s.store.Projection(left)
	if err != nil {
		return nil, err
	}
	rp, err := s.store.Projection(right)
	if err != nil {
		return nil, err
	}
	s.planBuilds.Add(1)
	pl, err := s.exec.BuildJoinPlan(lp, rp, q, rs)
	if err != nil {
		return nil, err
	}
	if s.builds != nil {
		pl.Builds = s.builds
	}
	return pl, nil
}

// Explain runs DB.Explain (selection) through admission control; the
// observed run executes at the granted parallelism. Explains bypass the
// result and plan caches — their per-node observed counters want a fresh
// tree.
func (c *Session) Explain(ctx context.Context, projection string, q matstore.Query, strat matstore.Strategy) (*matstore.Explanation, Info, error) {
	s := c.srv
	info := Info{Session: c.ID}
	span := obs.SpanFromContext(ctx)
	if est, err := s.db.EstimateSelectCost(projection, q, strat); err == nil {
		info.EstCostUS = est.Total()
	}
	grant, release, err := s.admit(ctx, span, q.Parallelism, &info)
	if err != nil {
		return nil, info, err
	}
	defer release()
	s.queries.Add(1)
	p, err := s.store.Projection(projection)
	if err != nil {
		return nil, info, badRequest(err)
	}
	if err := q.Validate(p); err != nil {
		return nil, info, badRequest(err)
	}
	q.Parallelism = grant
	espan := span.Child("execute")
	ex, err := s.db.ExplainTraced(projection, q, strat, espan)
	espan.End()
	return ex, info, err
}

// ExplainJoin runs DB.ExplainJoin through admission control.
func (c *Session) ExplainJoin(ctx context.Context, left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) (*matstore.Explanation, Info, error) {
	s := c.srv
	info := Info{Session: c.ID}
	span := obs.SpanFromContext(ctx)
	if est, err := s.db.EstimateJoinCost(left, right, q, rs); err == nil {
		info.EstCostUS = est.Total()
	}
	grant, release, err := s.admit(ctx, span, q.Parallelism, &info)
	if err != nil {
		return nil, info, err
	}
	defer release()
	s.queries.Add(1)
	for _, proj := range []string{left, right} {
		if _, err := s.store.Projection(proj); err != nil {
			return nil, info, badRequest(err)
		}
	}
	q.Parallelism = grant
	espan := span.Child("execute")
	ex, err := s.db.ExplainJoinTraced(left, right, q, rs, espan)
	espan.End()
	return ex, info, err
}

// String renders a one-line server description.
func (s *Server) String() string {
	return fmt.Sprintf("service.Server{budget=%d, max_concurrent=%d, result_cache=%v, build_cache=%v, plan_cache=%v}",
		s.cfg.WorkerBudget, s.cfg.MaxConcurrent, s.results != nil, s.builds != nil, s.plans != nil)
}

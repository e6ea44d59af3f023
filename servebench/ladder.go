package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"matstore"
	"matstore/internal/plan"
	"matstore/internal/service"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// The traced run replays one request list down a ladder of public calls.
// Each request visits every rung in turn, the first rung rotating from one
// request to the next, so the rungs of a request run back to back under the
// same conditions and no rung always goes first:
//
//	served       POST to the running csserve fleet (process, loopback and all below)
//	coordinator  service.Coordinator.Handler over in-process shard engines on loopback (sharded)
//	http         service.Server.Handler: JSON decode, session, JSON encode
//	session      service.Session.Select/Join: result cache, admission, plan and build caches
//	executor     core.Executor.BuildPlan/BuildJoinPlan, then RunPlan/RunJoinPlan
//
// Every call is a span recorded from this file. A rung's self time on a
// request is its span minus the span of the rung below on the same request;
// the coordinator's is its span minus the part its shard-call child spans
// cover. Last, every request runs once more under matstore.DB.Explain or
// ExplainJoin at parallelism 1, which splits execution into plan nodes with
// the analytical model's prediction beside each.

// ladder holds what the rungs share.
type ladder struct {
	rec     *recorder
	db      *matstore.DB // unsharded, in this process
	ref     *reference
	items   []item
	workers int // the engine's worker budget: what an uncontended session grants
	errs    []error
}

func (l *ladder) check(i int, err error) {
	if err != nil {
		l.errs = append(l.errs, fmt.Errorf("traced request %d: %w", i, err))
	}
}

// verifyReply checks a served reply: status 200 and the reference answer.
func (l *ladder) verifyReply(i, status int, body []byte) {
	if status != http.StatusOK {
		l.check(i, fmt.Errorf("HTTP %d: %s", status, body))
		return
	}
	_, err := l.ref.verify(l.items[i].s, body)
	l.check(i, err)
}

// verifyResult checks an in-process result against the reference, exactly
// as a served reply would be checked.
func (l *ladder) verifyResult(i int, res *matstore.Result) {
	l.check(i, l.ref.compare(l.items[i].s, answerOf(res)))
}

// rung is one ladder step: it runs request i and records its span.
type rung func(i int)

// servedRung posts to the running fleet on one keep-alive connection.
func (l *ladder) servedRung(ctx context.Context, url string) (rung, func()) {
	c := newClient()
	var buf bytes.Buffer
	return func(i int) {
		var status int
		var err error
		l.rec.timed("served", i, 0, false, func() int64 {
			_, status, err = post(ctx, c, url, &l.items[i], &buf)
			return int64(buf.Len())
		})
		if err != nil {
			l.check(i, err)
			return
		}
		l.verifyReply(i, status, buf.Bytes())
	}, c.CloseIdleConnections
}

// handlerRung calls an HTTP handler in process; with tagged set, requests
// carry a trace id naming their span, so the shard calls they cause can be
// filed as its children.
func (l *ladder) handlerRung(name string, h http.Handler, tagged bool) rung {
	return func(i int) {
		it := &l.items[i]
		req := httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body))
		rw := httptest.NewRecorder()
		id := l.rec.reserve()
		if tagged {
			req.Header.Set(service.TraceIDHeader, fmt.Sprintf("sb-%d-%d", id, i))
		}
		l.rec.finish(id, l.rec.measure(name, i, 0, true, func() int64 {
			h.ServeHTTP(rw, req)
			return int64(rw.Body.Len())
		}))
		l.verifyReply(i, rw.Code, rw.Body.Bytes())
	}
}

// sessionRung calls the session API of one server in process.
func (l *ladder) sessionRung(ctx context.Context, srv *service.Server) rung {
	return func(i int) {
		sh := l.items[i].s
		var res *matstore.Result
		var err error
		l.rec.timed("session", i, 0, true, func() int64 {
			sess := srv.NewSession()
			if sh.cls == clsJoin {
				q, rs := sh.joinQuery()
				var out *service.JoinResult
				if out, err = sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, q, rs); err == nil {
					res = out.Res
				}
			} else {
				q, st := sh.selectQuery()
				var out *service.SelectResult
				if out, err = sess.Select(ctx, tpch.LineitemProj, q, st); err == nil {
					res = out.Res
				}
			}
			return 0
		})
		if err != nil {
			l.check(i, err)
			return
		}
		l.verifyResult(i, res)
	}
}

// executorRung builds and runs each plan directly on the executor, at the
// worker count a session grants an uncontended request. The executor span
// (with its allocation) covers both calls; plan.build and plan.run are its
// children.
func (l *ladder) executorRung() (rung, error) {
	ex, store := l.db.Exec(), l.db.Storage()
	li, err := store.Projection(tpch.LineitemProj)
	if err != nil {
		return nil, err
	}
	orders, err := store.Projection(tpch.OrdersProj)
	if err != nil {
		return nil, err
	}
	cust, err := store.Projection(tpch.CustomerProj)
	if err != nil {
		return nil, err
	}
	return func(i int) {
		sh := l.items[i].s
		id := l.rec.reserve()
		var res *matstore.Result
		var err error
		l.rec.finish(id, l.rec.measure("executor", i, 0, true, func() int64 {
			var pl *plan.Plan
			l.rec.timed("plan.build", i, id, false, func() int64 {
				if sh.cls == clsJoin {
					q, rs := sh.joinQuery()
					pl, err = ex.BuildJoinPlan(orders, cust, q, rs)
				} else {
					q, st := sh.selectQuery()
					pl, err = ex.BuildPlan(li, q, st)
				}
				return 0
			})
			if err != nil {
				return 0
			}
			l.rec.timed("plan.run", i, id, false, func() int64 {
				if sh.cls == clsJoin {
					res, _, err = ex.RunJoinPlan(pl, l.workers, false)
				} else {
					_, st := sh.selectQuery()
					res, _, err = ex.RunPlan(pl, st, l.workers, false)
				}
				return 0
			})
			return 0
		}))
		if err != nil {
			l.check(i, err)
			return
		}
		l.verifyResult(i, res)
	}, nil
}

// shardFleet serves every shard of a csgen -shards root from this process
// on loopback and returns a coordinator handler over them whose shard calls
// are recorded as child spans of the coordinator span that caused them.
// Before returning it replays the list once through a throwaway coordinator
// and throwaway shard servers, loading the shards' buffer pools, so the
// timed pass meets warm data and cold caches like every other rung.
func (l *ladder) shardFleet(root string) (http.Handler, func(), error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	m, err := storage.LoadShardManifest(root)
	if err != nil {
		return nil, nil, err
	}
	var dbs []*matstore.DB
	for _, d := range m.Dirs {
		db, err := matstore.Open(filepath.Join(root, d))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, func() { db.Close() })
		dbs = append(dbs, db)
	}
	coordinator := func(timed bool) (http.Handler, error) {
		var urls []string
		for k, db := range dbs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			var h http.Handler = service.New(db, service.Config{}).Handler()
			if timed {
				h = l.shardHandler(k, h)
			}
			hs := &http.Server{Handler: h}
			go hs.Serve(ln) // returns once Close shuts the listener
			closers = append(closers, func() { hs.Close() })
			urls = append(urls, "http://"+ln.Addr().String())
		}
		c, err := service.NewCoordinator(root, urls, service.CoordinatorConfig{})
		if err != nil {
			return nil, err
		}
		return c.Handler(), nil
	}
	warm, err := coordinator(false)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	for i := range l.items {
		it := &l.items[i]
		warm.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body)))
	}
	h, err := coordinator(true)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return h, closeAll, nil
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// shardHandler wraps shard k's handler in a timing handler: each call is a
// span whose parent is the coordinator span named by the trace-id header.
func (l *ladder) shardHandler(k int, h http.Handler) http.Handler {
	name := fmt.Sprintf("shard.%d", k)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent, req int
		// An untagged request has no parent span and files as a root.
		fmt.Sscanf(r.Header.Get(service.TraceIDHeader), "sb-%d-%d", &parent, &req)
		cw := &countingWriter{ResponseWriter: w}
		s := &span{Name: name, Parent: parent, Req: req, Start: l.rec.now()}
		h.ServeHTTP(cw, r)
		s.End = l.rec.now()
		s.Bytes = cw.n
		l.rec.add(s)
	})
}

// nodeGroup maps plan-node kinds onto the layers the report names: scans
// (internal/encoding and internal/kernels), extractions and gathers
// (internal/storage), tuple construction, aggregation and the two join
// phases (internal/operators).
func nodeGroup(k plan.Kind) string {
	switch k {
	case plan.KindDS1, plan.KindDS2, plan.KindSPC, plan.KindAND, plan.KindFilterAt, plan.KindPosAll:
		return "scan"
	case plan.KindDS3, plan.KindDS4:
		return "extract"
	case plan.KindMerge, plan.KindProject:
		return "merge"
	case plan.KindAggregate:
		return "agg"
	case plan.KindJoinBuild:
		return "join_build"
	default:
		return "join_probe"
	}
}

var nodeGroups = []string{"scan", "extract", "merge", "agg", "join_build", "join_probe"}

// nodeStats accumulates one node group's observed and modeled time.
type nodeStats struct {
	selfMS     []float64 // per request containing the group
	observedUS float64   // over nodes the model annotates
	modeledUS  float64
}

// explain runs every request under EXPLAIN at parallelism 1 and folds each
// plan node's observed self time and modeled µs into its group.
func (l *ladder) explain() map[string]*nodeStats {
	out := map[string]*nodeStats{}
	for _, g := range nodeGroups {
		out[g] = &nodeStats{}
	}
	for i := range l.items {
		sh := l.items[i].s
		var ex *matstore.Explanation
		var err error
		l.rec.timed("explain", i, 0, false, func() int64 {
			if sh.cls == clsJoin {
				q, rs := sh.joinQuery()
				q.Parallelism = 1
				ex, err = l.db.ExplainJoin(tpch.OrdersProj, tpch.CustomerProj, q, rs)
			} else {
				q, st := sh.selectQuery()
				q.Parallelism = 1
				ex, err = l.db.Explain(tpch.LineitemProj, q, st)
			}
			return 0
		})
		if err != nil {
			l.check(i, err)
			continue
		}
		l.verifyResult(i, ex.Result)
		self := map[string]int64{}
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			g := nodeGroup(n.Kind)
			ns := n.Obs.Nanos.Load()
			self[g] += ns
			if n.HasModel {
				out[g].observedUS += float64(ns) / 1e3
				out[g].modeledUS += n.Modeled.Total()
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(ex.Plan.Root)
		for g, ns := range self {
			out[g].selfMS = append(out[g].selfMS, float64(ns)/1e6)
		}
	}
	return out
}

// run replays the list down the ladder and returns the per-layer metrics.
func (l *ladder) run(ctx context.Context, frontURL, shardRoot string) (map[string]float64, map[string]*nodeStats, error) {
	served, closeClient := l.servedRung(ctx, frontURL)
	defer closeClient()
	rungs := []rung{served}
	below := "http" // the rung directly under served
	if shardRoot != "" {
		coord, closeShards, err := l.shardFleet(shardRoot)
		if err != nil {
			return nil, nil, fmt.Errorf("coordinator rung: %w", err)
		}
		defer closeShards()
		rungs = append(rungs, l.handlerRung("coordinator", coord, true))
		below = "coordinator"
	}
	srv := service.New(l.db, service.Config{})
	execRung, err := l.executorRung()
	if err != nil {
		return nil, nil, err
	}
	rungs = append(rungs,
		l.handlerRung("http", service.New(l.db, service.Config{}).Handler(), false),
		l.sessionRung(ctx, srv),
		execRung)

	pool0 := l.db.PoolStats()
	for i := range l.items {
		for k := range rungs {
			rungs[(i+k)%len(rungs)](i)
		}
	}
	nodes := l.explain()
	pool1 := l.db.PoolStats()

	m := map[string]float64{}
	n := float64(len(l.items))
	execs := l.rec.named("executor")
	m["plan.build_us"] = p50(durations(l.rec.named("plan.build"))) / 1e3
	m["plan.run_ms"] = p50(durations(l.rec.named("plan.run"))) / 1e6
	m["plan.alloc_kb"] = meanAlloc(execs) / 1024
	var allocs float64
	for _, s := range execs {
		allocs += float64(s.Allocs)
	}
	m["plan.allocs"] = allocs / n

	sess := l.rec.named("session")
	m["session.call_ms"] = p50(durations(sess)) / 1e6
	m["session.self_us"] = p50(minus(sess, byReq(execs))) / 1e3
	m["session.alloc_kb"] = meanAlloc(sess) / 1024
	st := srv.Stats()
	rc := st.ResultCache
	m["result_cache.hit_ratio"] = ratio(rc.Hits, rc.Hits+rc.Misses)
	m["result_cache.bytes_per_entry"] = ratio(rc.Bytes, int64(rc.Entries))
	m["result_cache.evictions_per_kq"] = ratio(1000*rc.Evictions, st.Queries)
	m["plan_cache.hit_ratio"] = ratio(st.PlanCache.Hits, st.PlanCache.Hits+st.PlanCache.Misses)
	m["build_cache.hit_ratio"] = ratio(st.BuildCache.Hits, st.BuildCache.Hits+st.BuildCache.Misses)

	hs := l.rec.named("http")
	m["http.handler_ms"] = p50(durations(hs)) / 1e6
	m["http.self_us"] = p50(minus(hs, byReq(sess))) / 1e3
	var respBytes float64
	for _, s := range hs {
		respBytes += float64(s.Bytes)
	}
	m["http.response_bytes"] = respBytes / n
	m["http.alloc_kb"] = meanAlloc(hs) / 1024

	// The coordinator metrics are 0 on workloads without a coordinator.
	m["coordinator.handler_ms"], m["coordinator.self_us"] = 0, 0
	m["coordinator.shard_bytes_per_query"], m["coordinator.shard_skew"] = 0, 0
	if cs := l.rec.named("coordinator"); len(cs) > 0 {
		var self, skew []float64
		var shardBytes float64
		for _, c := range cs {
			self = append(self, float64(l.rec.selfTime(c)))
			kids := l.rec.children(c.ID)
			var lo, hi time.Duration
			for j, k := range kids {
				shardBytes += float64(k.Bytes)
				if j == 0 || k.dur() < lo {
					lo = k.dur()
				}
				hi = max(hi, k.dur())
			}
			if len(kids) >= 2 && lo > 0 {
				skew = append(skew, float64(hi)/float64(lo))
			}
		}
		m["coordinator.handler_ms"] = p50(durations(cs)) / 1e6
		m["coordinator.self_us"] = p50(self) / 1e3
		m["coordinator.shard_bytes_per_query"] = shardBytes / n
		m["coordinator.shard_skew"] = p50(skew)
	}

	for _, g := range nodeGroups {
		ns := nodes[g]
		m["node."+g+".self_ms"] = p50(ns.selfMS)
		m["node."+g+".model_ratio"] = 0
		if ns.modeledUS > 0 {
			m["node."+g+".model_ratio"] = ns.observedUS / ns.modeledUS
		}
	}
	hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses
	m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	m["buffer.evictions"] = float64(pool1.Evictions - pool0.Evictions)
	servedSpans := l.rec.named("served")
	m["served.p50_ms"] = p50(durations(servedSpans)) / 1e6
	m["transport_us"] = p50(minus(servedSpans, byReq(l.rec.named(below)))) / 1e3
	if len(l.errs) > 0 {
		return m, nodes, fmt.Errorf("%d wrong traced answers, first: %w", len(l.errs), l.errs[0])
	}
	return m, nodes, nil
}

func durations(ss []*span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur())
	}
	return out
}

func byReq(ss []*span) map[int]*span {
	out := make(map[int]*span, len(ss))
	for _, s := range ss {
		out[s.Req] = s
	}
	return out
}

// minus returns, per request, the span's duration minus the duration of
// the same request's span one rung below.
func minus(ss []*span, below map[int]*span) []float64 {
	var out []float64
	for _, s := range ss {
		if b := below[s.Req]; b != nil {
			out = append(out, float64(s.dur()-b.dur()))
		}
	}
	return out
}

func meanAlloc(ss []*span) float64 {
	if len(ss) == 0 {
		return 0
	}
	var sum float64
	for _, s := range ss {
		sum += float64(s.AllocBytes)
	}
	return sum / float64(len(ss))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

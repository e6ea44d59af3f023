// End-to-end tracing suite: "trace": true returns one span tree per
// request; through the coordinator, each shard's sub-tree (admission and
// per-plan-node spans) is grafted under the fan-out span with the trace id
// propagated via X-CS-Trace-Id; tracing disabled by default leaves responses
// byte-free of any trace key.
package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"matstore/internal/obs"
	"matstore/internal/service"
)

// postRaw POSTs body and returns the status, headers and raw response body.
func postRaw(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// tracedResponse decodes just the trace envelope of a traced response.
type tracedResponse struct {
	Trace *obs.TraceJSON `json:"trace"`
}

// checkNesting walks the span tree asserting strict nesting: every
// wall-clocked span's duration covers the sum of its sequential children.
// Spans marked accum (synthetic per-plan-node spans rebuilt from worker-
// summed counters) are exempt and so are the children of spans marked
// parallel (concurrent siblings overlap, so their sum can exceed the
// parent's wall).
func checkNesting(t *testing.T, sp *obs.SpanJSON, path string) {
	t.Helper()
	if sp.Attrs["accum"] == true {
		return
	}
	var sum int64
	for _, c := range sp.Children {
		if c.Attrs["accum"] != true {
			sum += c.DurNS
		}
		checkNesting(t, c, path+"/"+c.Name)
	}
	if sp.Attrs["parallel"] != true && sum > sp.DurNS {
		t.Errorf("span %s: children sum %dns exceeds own wall %dns", path, sum, sp.DurNS)
	}
}

func findSpan(root *obs.SpanJSON, name string) *obs.SpanJSON {
	return root.Find(func(s *obs.SpanJSON) bool { return s.Name == name })
}

// childSpan returns root's DIRECT child by name (the engine sub-trees reuse
// phase names like "merge", so depth-first Find would cross into them).
func childSpan(root *obs.SpanJSON, name string) *obs.SpanJSON {
	for _, c := range root.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func findSpanPrefix(root *obs.SpanJSON, prefix string) *obs.SpanJSON {
	return root.Find(func(s *obs.SpanJSON) bool { return strings.HasPrefix(s.Name, prefix) })
}

// TestTracedQuerySingleEngine: a traced /query returns one span tree with
// the admission, plan-build and execute phases plus synthetic per-plan-node
// spans, under the same id the X-CS-Trace-Id response header carries; the
// same request without trace returns no trace key at all (byte-identity
// with the pre-tracing wire format).
func TestTracedQuerySingleEngine(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400"],"strategy":"lm-parallel","limit":5`
	status, hdr, raw := postRaw(t, ts.URL+"/query", body+`,"trace":true}`)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, raw)
	}
	var tr tracedResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Trace == nil || tr.Trace.Root == nil {
		t.Fatal("traced response has no trace")
	}
	if len(tr.Trace.ID) != 16 {
		t.Errorf("trace id %q: want 16 hex chars", tr.Trace.ID)
	}
	if got := hdr.Get("X-CS-Trace-Id"); got != tr.Trace.ID {
		t.Errorf("X-CS-Trace-Id header %q != trace id %q", got, tr.Trace.ID)
	}
	root := tr.Trace.Root
	if root.Name != "query" {
		t.Errorf("root span %q, want query", root.Name)
	}
	for _, phase := range []string{"admission", "plan.build", "execute", "morsels"} {
		if findSpan(root, phase) == nil {
			t.Errorf("no %q span in trace:\n%s", phase, raw)
		}
	}
	node := findSpanPrefix(root, "DS1 scan")
	if node == nil {
		t.Fatalf("no per-plan-node DS1 scan span in trace:\n%s", raw)
	}
	if node.Attrs["accum"] != true {
		t.Errorf("plan-node span not marked accum: %v", node.Attrs)
	}
	if _, ok := node.Attrs["rows"]; !ok {
		t.Errorf("plan-node span carries no rows attr: %v", node.Attrs)
	}
	if _, ok := node.Attrs["model_us"]; !ok {
		t.Errorf("plan-node span carries no model_us attr (traced runs annotate): %v", node.Attrs)
	}
	checkNesting(t, root, root.Name)

	// Disabled by default: no trace key anywhere in the response bytes.
	status, _, raw = postRaw(t, ts.URL+"/query", body+`}`)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, raw)
	}
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Errorf("untraced response contains a trace key: %s", raw)
	}
}

// TestTracedErrorCarriesTraceID: error responses echo the trace id in the
// body so failures stay correlatable.
func TestTracedErrorCarriesTraceID(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, hdr, raw := postRaw(t, ts.URL+"/query", `{"projection":"nope"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400: %s", status, raw)
	}
	var e map[string]string
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e["trace_id"] == "" || e["trace_id"] != hdr.Get("X-CS-Trace-Id") {
		t.Errorf("error body trace_id %q, header %q", e["trace_id"], hdr.Get("X-CS-Trace-Id"))
	}
}

// TestTracePropagationCoordinator: a traced query through a 2-shard
// coordinator returns ONE span tree — coordinator fan-out spans with each
// shard's own sub-tree (admission + per-plan-node spans) grafted beneath
// them under the SAME propagated trace id, plus the merge span.
func TestTracePropagationCoordinator(t *testing.T) {
	f := newFleet(t, 2, service.CoordinatorConfig{})

	// The wide predicate keeps every shard (no zone-map pruning) while still
	// planting a DS1 scan node in each shard's plan.
	status, hdr, raw := postRaw(t, f.URL+"/query",
		`{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<999999"],"strategy":"lm-parallel","limit":5,"trace":true}`)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, raw)
	}
	var tr tracedResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Trace == nil || tr.Trace.Root == nil {
		t.Fatal("traced coordinator response has no trace")
	}
	root := tr.Trace.Root
	if root.Name != "coordinator.query" {
		t.Errorf("root span %q, want coordinator.query", root.Name)
	}
	if hdr.Get("X-CS-Trace-Id") != tr.Trace.ID {
		t.Errorf("header id %q != trace id %q", hdr.Get("X-CS-Trace-Id"), tr.Trace.ID)
	}
	fanout := findSpan(root, "fanout")
	if fanout == nil {
		t.Fatalf("no fanout span:\n%s", raw)
	}
	if len(fanout.Children) != 2 {
		t.Fatalf("fanout has %d shard spans, want 2", len(fanout.Children))
	}
	for _, shard := range fanout.Children {
		if !strings.HasPrefix(shard.Name, "shard ") {
			t.Errorf("fanout child %q, want shard k", shard.Name)
		}
		// The shard answered under the propagated id: its sub-tree's trace
		// id (recorded at graft time) must match the coordinator's.
		if got := shard.Attrs["shard_trace_id"]; got != tr.Trace.ID {
			t.Errorf("%s sub-tree trace id %v, want %q", shard.Name, got, tr.Trace.ID)
		}
		sub := findSpan(shard, "query")
		if sub == nil {
			t.Fatalf("%s has no grafted engine sub-tree:\n%s", shard.Name, raw)
		}
		if findSpan(sub, "admission") == nil {
			t.Errorf("%s sub-tree has no admission span", shard.Name)
		}
		if findSpanPrefix(sub, "DS1 scan") == nil {
			t.Errorf("%s sub-tree has no per-plan-node span", shard.Name)
		}
	}
	if childSpan(root, "merge") == nil {
		t.Errorf("no merge span:\n%s", raw)
	}
	checkNesting(t, root, root.Name)

	// Disabled by default, through the fleet too.
	status, _, raw = postRaw(t, f.URL+"/query",
		`{"projection":"lineitem","output":["shipdate","linenum"],"strategy":"lm-parallel","limit":5}`)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, raw)
	}
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Errorf("untraced fleet response contains a trace key: %s", raw)
	}
}

// TestTracedCopartitionedJoin: the co-partitioned join fan-out (both sides
// hash-partitioned on custkey) carries each shard's join.build span and the
// row-id merge span in one tree.
func TestTracedCopartitionedJoin(t *testing.T) {
	f := newKeypartFleet(t, 2, service.CoordinatorConfig{})

	status, _, raw := postRaw(t, f.URL+"/join",
		`{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"limit":5,"trace":true}`)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, raw)
	}
	var tr tracedResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Trace == nil || tr.Trace.Root == nil {
		t.Fatal("traced join has no trace")
	}
	root := tr.Trace.Root
	if root.Name != "coordinator.join" {
		t.Errorf("root span %q, want coordinator.join", root.Name)
	}
	fanout := findSpan(root, "fanout")
	if fanout == nil {
		t.Fatalf("no fanout span:\n%s", raw)
	}
	if fanout.Attrs["copartitioned"] != true {
		t.Errorf("fanout not marked copartitioned: %v", fanout.Attrs)
	}
	if got := len(fanout.Children); got != 2 {
		t.Fatalf("fanout has %d shard spans, want 2", got)
	}
	for _, shard := range fanout.Children {
		if findSpan(shard, "join.build") == nil {
			t.Errorf("%s sub-tree has no join.build span", shard.Name)
		}
	}
	merge := childSpan(root, "merge")
	if merge == nil {
		t.Fatal("no merge span")
	}
	if merge.Attrs["kind"] != "rowid_kway" {
		t.Errorf("merge kind %v, want rowid_kway", merge.Attrs["kind"])
	}
	checkNesting(t, root, root.Name)
}

// TestMetricsEndpoint: /metrics on a live engine serves strict Prometheus
// text (pinned by the parser round-trip) including the request latency
// histogram series; the coordinator's adds the shard request counters.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var q service.QueryResponse
	postJSON(t, ts.URL+"/query",
		`{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"],"strategy":"lm-parallel","limit":3}`, &q)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.ParsePrometheus(string(text))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, text)
	}
	names := map[string]bool{}
	for _, s := range samples {
		names[s.Name] = true
	}
	for _, want := range []string{"cs_requests_total", "cs_request_seconds_bucket",
		"cs_request_seconds_count", "cs_admission_queue_seconds_bucket",
		"cs_grant_workers_count", "cs_uptime_seconds",
		"cs_build_info", "cs_cache_events_total"} {
		if !names[want] {
			t.Errorf("/metrics missing series %s", want)
		}
	}
	if !strings.Contains(string(text), `cs_request_seconds_bucket{endpoint="query",outcome="ok",le="+Inf"}`) {
		t.Errorf("no query latency histogram bucket in /metrics:\n%s", text)
	}

	// Coordinator /metrics: shard request counters after one fan-out.
	f := newFleet(t, 2, service.CoordinatorConfig{})
	postJSON(t, f.URL+"/query",
		`{"projection":"lineitem","output":["shipdate"],"strategy":"lm-parallel","limit":3}`, &q)
	resp2, err := http.Get(f.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	ctext, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParsePrometheus(string(ctext)); err != nil {
		t.Fatalf("coordinator /metrics invalid: %v", err)
	}
	for _, want := range []string{`cs_shard_requests{outcome="total"}`,
		`cs_shard_request_seconds_bucket{shard="0"`, "cs_coordinator_routing"} {
		if !strings.Contains(string(ctext), want) {
			t.Errorf("coordinator /metrics missing %s:\n%s", want, ctext)
		}
	}
}

// lockedBuffer is a log sink safe to read while handlers may still write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: with a 1µs threshold every request is slow, so the
// engine and a 2-shard coordinator each log exactly one "slow query" line
// per /query, /join and /explain request, carrying its endpoint and the
// trace id echoed on the response.
func TestSlowQueryLog(t *testing.T) {
	bodies := map[string]string{
		"query":   `{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"],"limit":3}`,
		"join":    `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"limit":3}`,
		"explain": `{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"]}`,
	}
	check := func(t *testing.T, url string, log *lockedBuffer) {
		t.Helper()
		tids := map[string]string{}
		for endpoint, body := range bodies {
			status, hdr, raw := postRaw(t, url+"/"+endpoint, body)
			if status != http.StatusOK {
				t.Fatalf("/%s: HTTP %d: %s", endpoint, status, raw)
			}
			tids[endpoint] = hdr.Get(service.TraceIDHeader)
		}
		got := map[string][]string{}
		for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			if rec["msg"] == "slow query" {
				ep, _ := rec["endpoint"].(string)
				tid, _ := rec["trace_id"].(string)
				got[ep] = append(got[ep], tid)
			}
		}
		for endpoint, tid := range tids {
			if len(got[endpoint]) != 1 || got[endpoint][0] != tid {
				t.Errorf("/%s: slow-query trace ids %v, want exactly [%s]", endpoint, got[endpoint], tid)
			}
		}
	}
	t.Run("engine", func(t *testing.T) {
		var log lockedBuffer
		srv := newServer(t, service.Config{WorkerBudget: 2, MaxConcurrent: 4,
			SlowQueryMicros: 1, Logger: obs.NewLogger(&log)})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		check(t, ts.URL, &log)
	})
	t.Run("coordinator", func(t *testing.T) {
		var log lockedBuffer
		f := newFleet(t, 2, service.CoordinatorConfig{SlowQueryMicros: 1, Logger: obs.NewLogger(&log)})
		check(t, f.URL, &log)
	})
}

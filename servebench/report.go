package main

import (
	"fmt"
	"sort"
)

// endToEndUnits names every end-to-end metric (-trace 0) and its unit.
var endToEndUnits = map[string]string{
	"qps":                  "1/s",
	"latency_p50_ms":       "ms",
	"latency_p99_ms":       "ms",
	"select_p50_ms":        "ms",
	"agg_p50_ms":           "ms",
	"join_p50_ms":          "ms",
	"cpu_ms_per_query":     "ms",
	"server_rss_mb":        "MiB",
	"setup_s":              "s",
	"stored_bytes_per_row": "bytes",
}

// perLayerUnits names every per-layer metric (-trace 1) and its unit.
var perLayerUnits = map[string]string{
	"plan.build_us":                     "us",
	"plan.run_ms":                       "ms",
	"plan.alloc_kb":                     "KiB",
	"plan.allocs":                       "count",
	"node.scan.self_ms":                 "ms",
	"node.extract.self_ms":              "ms",
	"node.merge.self_ms":                "ms",
	"node.agg.self_ms":                  "ms",
	"node.join_build.self_ms":           "ms",
	"node.join_probe.self_ms":           "ms",
	"node.scan.model_ratio":             "ratio",
	"node.extract.model_ratio":          "ratio",
	"node.merge.model_ratio":            "ratio",
	"node.agg.model_ratio":              "ratio",
	"node.join_build.model_ratio":       "ratio",
	"node.join_probe.model_ratio":       "ratio",
	"buffer.hit_ratio":                  "ratio",
	"buffer.evictions":                  "count",
	"session.call_ms":                   "ms",
	"session.self_us":                   "us",
	"session.alloc_kb":                  "KiB",
	"result_cache.hit_ratio":            "ratio",
	"result_cache.bytes_per_entry":      "bytes",
	"result_cache.evictions_per_kq":     "1/kq",
	"plan_cache.hit_ratio":              "ratio",
	"build_cache.hit_ratio":             "ratio",
	"admission.queue_ms_per_query":      "ms",
	"admission.workers_per_query":       "count",
	"http.handler_ms":                   "ms",
	"http.self_us":                      "us",
	"http.response_bytes":               "bytes",
	"http.alloc_kb":                     "KiB",
	"coordinator.handler_ms":            "ms",
	"coordinator.self_us":               "us",
	"coordinator.shard_bytes_per_query": "bytes",
	"coordinator.shard_skew":            "ratio",
	"transport_us":                      "us",
	"served.p50_ms":                     "ms",
	"trace.overhead_us":                 "us",
}

// printMetrics prints every metric of a set by name and unit.
func printMetrics(workload, kind string, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("servebench: %s %s metrics\n", workload, kind)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6f %s\n", k, m[k], units[k])
	}
}

// printLadder prints the traced run as the layer ladder: each rung's p50,
// its self time (the rung minus the rung below on the same requests) and
// allocation per call, then each plan-node group's observed self time next
// to the analytical model's prediction.
func printLadder(workload string, m map[string]float64, nodes map[string]*nodeStats, sharded bool) {
	fmt.Printf("servebench: %s layer ladder (p50 per request; self = rung minus rung below)\n", workload)
	fmt.Printf("  %-12s %12s %14s %12s\n", "rung", "p50", "self", "alloc/call")
	fmt.Printf("  %-12s %9.3f ms %11.1f us %12s\n", "served", m["served.p50_ms"], m["transport_us"], "-")
	if sharded {
		fmt.Printf("  %-12s %9.3f ms %11.1f us %12s\n", "coordinator", m["coordinator.handler_ms"], m["coordinator.self_us"], "-")
	}
	fmt.Printf("  %-12s %9.3f ms %11.1f us %8.1f KiB\n", "http", m["http.handler_ms"], m["http.self_us"], m["http.alloc_kb"])
	fmt.Printf("  %-12s %9.3f ms %11.1f us %8.1f KiB\n", "session", m["session.call_ms"], m["session.self_us"], m["session.alloc_kb"])
	fmt.Printf("  %-12s %9.3f ms %14s %8.1f KiB  (build %.1f us)\n", "executor", m["plan.run_ms"]+m["plan.build_us"]/1e3, "-", m["plan.alloc_kb"], m["plan.build_us"])
	fmt.Printf("  %-12s %12s %14s %14s %8s\n", "node group", "self p50", "observed", "modeled", "obs/mod")
	for _, g := range nodeGroups {
		ns := nodes[g]
		fmt.Printf("  %-12s %9.3f ms %11.0f us %11.0f us %8.3f\n", g, m["node."+g+".self_ms"], ns.observedUS, ns.modeledUS, m["node."+g+".model_ratio"])
	}
}

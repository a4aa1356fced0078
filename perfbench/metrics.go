package main

import "strings"

// unitOf gives every metric the benchmark reports its unit. BENCHMARK.json
// must list the same names with the same units; run refuses to report
// otherwise, so the definition and the program cannot drift apart.
var unitOf = map[string]string{
	// End-to-end metrics (untraced run). README.md defines each one per
	// workload.
	"setup_s":       "s",
	"peak_rss_mb":   "MB",
	"frame_slots":   "count",
	"messages":      "count",
	"rounds":        "count",
	"pass_cpu_s":    "s",
	"op_cpu_p50_ms": "ms",
	"op_cpu_p99_ms": "ms",
	"ops_per_cpu_s": "1/s",

	// Per-layer metrics (traced run). A layer a workload does not use
	// reports 0.
	"sim.sync_ns_per_msg":                  "ns",
	"sim.async_ns_per_event":               "ns",
	"sim.sync_parallel_speedup":            "ratio",
	"sim.dropped_fault":                    "count",
	"sim.duplicated":                       "count",
	"sim.dropped_dead":                     "count",
	"core.distmis_s":                       "s",
	"core.dfs_s":                           "s",
	"core.primary_mis_s":                   "s",
	"core.secondary_mis_s":                 "s",
	"core.coloring_s":                      "s",
	"core.outer_iters":                     "count",
	"core.inner_iters":                     "count",
	"core.msgs.primary-mis":                "count",
	"core.msgs.secondary-mis":              "count",
	"core.msgs.coloring":                   "count",
	"core.dfs.msgs.tokenMsg":               "count",
	"core.dfs.msgs.bounceMsg":              "count",
	"core.dfs.msgs.askMsg":                 "count",
	"core.dfs.msgs.replyMsg":               "count",
	"core.dfs.msgs.annMsg":                 "count",
	"core.dfs.msgs.ackMsg":                 "count",
	"core.dfs.msgs.transport":              "count",
	"core.dfs.msgs.other":                  "count",
	"core.rejoin_msgs":                     "count",
	"transport.segments":                   "count",
	"transport.retries":                    "count",
	"transport.gave_up":                    "count",
	"transport.acks":                       "count",
	"transport.vouched":                    "count",
	"transport.peers_down":                 "count",
	"transport.max_inflight":               "count",
	"transport.retry_ratio":                "ratio",
	"transport.msg_overhead":               "ratio",
	"transport.time_overhead":              "ratio",
	"transport.ns_per_segment":             "ns",
	"graph.gen_s":                          "s",
	"graph.decode_ms":                      "ms",
	"coloring.greedy_ms":                   "ms",
	"coloring.verify_ms":                   "ms",
	"coloring.cache_build_ms":              "ms",
	"coloring.patched_rows_per_update":     "count",
	"coloring.dirty_arcs_per_update":       "count",
	"coloring.stabilize_rounds_per_update": "count",
	"coloring.recolored_per_update":        "count",
	"coloring.recolor_ratio":               "ratio",
	"coloring.cache_rebuilds":              "count",
	"incr.apply_p50_ms":                    "ms",
	"incr.apply_p99_ms":                    "ms",
	"incr.allocs_per_update":               "count",
	"incr.bytes_per_update":                "B",
	"incr.new_ms":                          "ms",
	"httpapi.update_self_us":               "us",
	"httpapi.create_self_ms":               "ms",
	"httpapi.create_p50_ms":                "ms",
	"httpapi.get_p50_us":                   "us",
	"httpapi.req_bytes_per_update":         "B",
	"httpapi.resp_bytes_per_update":        "B",
	"obs.scrape_ms":                        "ms",
	"obs.series":                           "count",
	"go.gc_cycles":                         "count",
	"go.gc_pause_ms":                       "ms",
	"go.alloc_mb":                          "MB",
	"bench.trace_overhead":                 "ratio",
	"bench.op_samples":                     "count",
	"bench.wall_pass_s":                    "s",
	"bench.wall_op_p50_ms":                 "ms",
	"bench.wall_op_p99_ms":                 "ms",
}

// isLayer tells per-layer metrics (a dotted layer prefix) from end-to-end
// ones.
func isLayer(name string) bool { return strings.Contains(name, ".") }

// zeroLayers reports every per-layer metric as 0 up front, so a layer the
// workload bypasses still appears in the result.
func zeroLayers(r *report) {
	for name := range unitOf {
		if isLayer(name) {
			r.set(name, 0)
		}
	}
}

// setLayers reports the per-layer metrics among values; other keys are
// intermediate sums.
func setLayers(r *report, values map[string]float64) {
	for name, v := range values {
		if _, ok := unitOf[name]; ok && isLayer(name) {
			r.set(name, v)
		}
	}
}

package main

import "strings"

// metricDef names one metric. BENCHMARK.json repeats these tables; the smoke
// test fails if the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Units say which clock a number is on. sim_ns, sim_us and sim_s are virtual
// time of the modelled machine: exactly repeatable for a seed, and on the
// file-system workloads the same for every seed, because the device model has
// no locality. ns, us and s are wall time of the Go process.

// endToEndMetrics are what a user of the system sees: of the modelled machine
// (sim_*) and of the simulator as a program (wall_*, host_*, setup_s; medians
// over the repetitions). A bound has to hold the spread between seeds of the
// noisiest workload three times over: sim_goodput_kops is bounded by
// kv_overload, where only the ~450 ops of the first 5 ms are in time, and
// sim_p99_us by kv_serve, where p99 at 80 % load is set by a few bursts.
var endToEndMetrics = []metricDef{
	{"sim_goodput_kops", "Kops/sim_s", "higher", 0.15},
	{"sim_p50_us", "sim_us", "lower", 0.05},
	{"sim_p99_us", "sim_us", "lower", 0.15},
	{"sim_knee_kops", "Kops/sim_s", "higher", 0.12},
	{"wall_us_per_op", "us", "lower", 0.10},
	{"host_allocs_per_op", "count", "lower", 0.03},
	{"host_alloc_bytes_per_op", "bytes", "lower", 0.05},
	{"host_peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// harnessMetrics come from the layer harnesses, which time public functions
// of one module at a time on a bare engine or a minimal machine: wall ns,
// virtual ns and mallocs per call. They do not depend on the workload.
var harnessMetrics = expand(
	// sim kernel
	"sim.advance_self_wall_ns ns", "sim.advance_handoff_wall_ns ns", "sim.resource_use_wall_ns ns",
	"sim.cond_pingpong_wall_ns ns", "sim.spawn_wall_ns ns",
	// transport + ringbuf
	"transport.sendrecv_64b_wall_ns ns", "transport.sendrecv_64b_sim_ns sim_ns", "transport.sendrecv_64b_allocs count",
	// ninep
	"ninep.codec_wall_ns ns", "ninep.codec_allocs count",
	// dataplane + controlplane, file system RPCs
	"rpc.stat_wall_ns ns", "rpc.stat_sim_ns sim_ns", "rpc.stat_allocs count",
	"rpc.open_close_wall_ns ns", "rpc.open_close_sim_ns sim_ns",
	// dataplane + controlplane, network
	"net.echo_64b_wall_ns ns", "net.echo_64b_sim_ns sim_ns", "net.echo_64b_allocs count",
	// cache
	"cache.lookup_hit_wall_ns ns", "cache.lookup_hit_allocs count",
	"cache.insert_evict_wall_ns ns", "cache.insert_evict_allocs count",
	// pcie
	"pcie.dma_4kb_wall_ns ns", "pcie.dma_4kb_sim_ns sim_ns", "pcie.dma_64kb_wall_ns ns", "pcie.dma_64kb_sim_ns sim_ns",
	// nvme
	"nvme.read_64kb_wall_ns ns", "nvme.read_64kb_sim_ns sim_ns", "nvme.write_64kb_wall_ns ns", "nvme.write_64kb_sim_ns sim_ns",
	"nvme.read_4kb_sim_ns sim_ns",
	// fs (solrosfs)
	"fs.read_64kb_wall_ns ns", "fs.read_64kb_sim_ns sim_ns", "fs.append_64kb_wall_ns ns", "fs.append_64kb_sim_ns sim_ns",
	"fs.append_256b_wall_ns ns", "fs.append_256b_sim_ns sim_ns", "fs.create_unlink_wall_ns ns", "fs.create_unlink_sim_ns sim_ns",
	"fs.sync_wall_ns ns", "fs.sync_sim_ns sim_ns",
	// netstack
	"netstack.pingpong_64b_wall_ns ns", "netstack.pingpong_64b_sim_ns sim_ns",
	// apps/kvstore
	"kvstore.get_hit_wall_ns ns", "kvstore.get_hit_sim_ns sim_ns", "kvstore.get_hit_allocs count",
	"kvstore.get_miss_sim_ns sim_ns",
	"kvstore.put_wall_ns ns", "kvstore.put_sim_ns sim_ns", "kvstore.put_allocs count",
	// workload generator
	"workload.gen_wall_ns ns",
)

// runMetrics are measured on the workload itself, from outside the program:
// public counter deltas over the timed region of one untraced repetition
// (run.*), then the traced repetition (telemetry.*, trace.*, call.*).
var runMetrics = expand(
	"run.dispatches_per_op count", "run.wall_ns_per_dispatch ns", "run.gc_cycles count", "run.gc_pause_ms ms",
	"run.sim_span_s sim_s",
	"run.ring_msgs_per_op count", "run.ring_bytes_per_op bytes",
	"run.path_p2p_share ratio", "run.path_buffered_share ratio", "run.path_cachehit_share ratio",
	"run.cache_hit_ratio ratio", "run.cache_evictions_per_op count",
	"run.pcie_txns_per_op count",
	"run.nvme_cmds_per_op count", "run.nvme_doorbells_per_cmd ratio", "run.nvme_bytes_per_op bytes",
	"run.nvme_busy_share ratio",
	"run.kv_miss_share ratio", "run.kv_log_bytes_per_put bytes",
	"run.late_share ratio",
	"workload.gen_late_us_max sim_us",
	// traced repetition
	"telemetry.overhead_wall_pct %", "telemetry.overhead_sim_pct %", "trace.dropped_spans count",
	"trace.ring_wait_us sim_us", "trace.combiner_us sim_us", "trace.ring_op_us sim_us", "trace.stub_issue_us sim_us",
	"trace.proxy_serve_us sim_us", "trace.cache_fill_us sim_us", "trace.copy_dma_us sim_us", "trace.nvme_us sim_us",
	"trace.reply_wait_us sim_us", "trace.other_us sim_us", "trace.total_us sim_us",
	"call.fs_open_us sim_us", "call.fs_read_us sim_us", "call.fs_write_us sim_us", "call.fs_sync_us sim_us",
	"call.fs_unlink_us sim_us", "call.kv_get_us sim_us", "call.kv_put_us sim_us", "call.kv_queue_wait_us sim_us",
)

var perLayerMetrics = append(append([]metricDef(nil), harnessMetrics...), runMetrics...)

// expand turns "name unit" pairs into definitions. Per-layer metrics have no
// bound; lower is better except for shares of work that took a cheaper path.
func expand(pairs ...string) []metricDef {
	defs := make([]metricDef, len(pairs))
	for i, p := range pairs {
		name, unit, _ := strings.Cut(p, " ")
		better := "lower"
		switch name {
		case "run.cache_hit_ratio", "run.path_cachehit_share", "run.path_p2p_share":
			better = "higher"
		}
		defs[i] = metricDef{Name: name, Unit: unit, Better: better}
	}
	return defs
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEndMetrics {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerMetrics {
		m[d.Name] = d.Unit
	}
	return m
}()

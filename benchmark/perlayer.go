package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"solros/internal/telemetry"
)

// tracedShare is how much of a workload's ops the repetitions of a -trace 1
// run do: the program keeps 20 to 45 spans per op, and a full-length traced
// repetition would hold three million of them.
const tracedShare = 4

// runPerLayer is the workload's part of a -trace 1 run (the layer harnesses
// are the rest): one untraced repetition for the public counter deltas, one
// traced repetition of the same size for the stage rollup and the
// benchmark's own call spans. Tracing adds a 16-byte trailer to every RPC frame, so no end-to-end metric
// is taken here; how far the traced repetition is from the untraced one is
// reported as the telemetry overhead.
func runPerLayer(w *workloadDef, o options) result {
	res := newResult(w, o)
	ops := w.opsFor(o.quick)
	if !o.quick {
		ops /= tracedShare
	}
	in := w.prepare(o.seed, ops, 1, o.quick)
	res.InputSum = fmt.Sprintf("%016x", inputChecksum(in))

	plain := w.runRep(in, 0, ops, nil, nil)
	sink := telemetry.New(telemetry.Options{MaxSpans: 1 << 23})
	tr := newTracer()
	traced := w.runRep(in, 0, ops, sink, tr)
	for i, r := range []*rep{plain, traced} {
		for _, p := range r.problems {
			res.problem("%s repetition: %s", []string{"untraced", "traced"}[i], p)
		}
		res.Attempted += r.ops
		res.Failed += r.failed
		res.Late += r.late
	}
	res.SimDigest = fmt.Sprintf("%016x", plain.digest)

	// Counter deltas over the untraced timed region.
	d, n := plain.d, float64(ops)
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := func(i counter) float64 { return float64(d[i]) }
	span := plain.last - plain.first
	wallNs := float64(plain.wall.Nanoseconds())
	res.set("run.dispatches_per_op", c(cDispatches)/n)
	res.set("run.wall_ns_per_dispatch", per(wallNs, c(cDispatches)))
	res.set("run.gc_cycles", c(cGCCycles))
	res.set("run.gc_pause_ms", c(cGCPauseNs)/1e6)
	res.set("run.sim_span_s", span.Seconds())
	res.set("run.ring_msgs_per_op", c(cRingMsgs)/n)
	res.set("run.ring_bytes_per_op", c(cRingBytes)/n)
	paths := c(cPathP2P) + c(cPathBuffered) + c(cPathCacheHit)
	res.set("run.path_p2p_share", per(c(cPathP2P), paths))
	res.set("run.path_buffered_share", per(c(cPathBuffered), paths))
	res.set("run.path_cachehit_share", per(c(cPathCacheHit), paths))
	res.set("run.cache_hit_ratio", per(c(cCacheHits), c(cCacheHits)+c(cCacheMisses)))
	res.set("run.cache_evictions_per_op", c(cCacheEvictions)/n)
	res.set("run.pcie_txns_per_op", c(cPCIeTxns)/n)
	res.set("run.nvme_cmds_per_op", c(cNVMeCmds)/n)
	res.set("run.nvme_doorbells_per_cmd", per(c(cNVMeDoorbells), c(cNVMeCmds)))
	res.set("run.nvme_bytes_per_op", c(cNVMeBytes)/n)
	res.set("run.nvme_busy_share", per(c(cFlashBusyNs), float64(span)))
	// A GET misses when its value is read through the buffered path (a cache
	// fill from NVMe); the store's PUTs are the other users of that path.
	res.set("run.kv_miss_share", per(c(cPathBuffered)-c(cKVPuts), c(cKVGets)))
	res.set("run.kv_log_bytes_per_put", per(c(cKVLogBytes), c(cKVPuts)))
	res.set("run.late_share", float64(plain.late)/n)
	res.set("workload.gen_late_us_max", float64(plain.genLate)/1e3)

	// The traced repetition.
	res.set("telemetry.overhead_wall_pct", 100*(float64(traced.wall)/float64(plain.wall)-1))
	res.set("telemetry.overhead_sim_pct", 100*(traced.meanLatency()/plain.meanLatency()-1))
	res.set("trace.dropped_spans", float64(sink.DroppedSpans()))
	stages, total := stageMeans(sink, traced.first, traced.last, ops)
	for _, st := range telemetry.StageOrder {
		res.set("trace."+st+"_us", stages[st])
	}
	res.set("trace.total_us", total)
	calls := tr.callMeans()
	for _, d := range runMetrics {
		if name, ok := strings.CutPrefix(d.Name, "call."); ok {
			res.set(d.Name, calls[strings.TrimSuffix(name, "_us")])
		}
	}
	if err := tr.save(filepath.Join(o.out, w.name+".trace.json")); err != nil {
		res.problem("writing the trace: %v", err)
	}
	return res
}

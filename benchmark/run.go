package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"solros/internal/apps/kvstore"
	"solros/internal/core"
	"solros/internal/fs"
	"solros/internal/sim"
	"solros/internal/telemetry"
)

// segments is how many stretches of the generated input stream an end-to-end
// run measures, each in a repetition of its own on a fresh machine. The
// virtual-time metrics pool the segments: one 60 k-op stretch of the serving
// workloads leaves p99 at 80 % load with a spread of 15 % between seeds, and
// the file system cannot take a longer one (README, known limits).
const segments = 4

type options struct {
	seed    int64
	seconds float64
	quick   bool
	out     string
}

// workloadDef is one set of inputs the benchmark runs. ops, the length of a
// repetition, is frozen: sim_p99_us and the overload numbers depend on it.
type workloadDef struct {
	name string
	ops  int
	// cfg is the machine shape. Only shape fields may be set here (see
	// surface_test.go): the benchmark measures what a user gets by default.
	cfg core.Config
	net bool
	// prepare makes the inputs of n segments of ops ops from the seed, once
	// per process.
	prepare func(seed int64, ops, n int, quick bool) any
	// knee, for an open loop below saturation, searches the highest rate the
	// machine sustains; nil where the completion rate already is that.
	knee func(w *workloadDef, in any, quick bool) float64
	// body runs on the booted machine: set-up, r.begin, the ops, r.end,
	// then its own checks. It must leave the machine quiescent.
	body func(r *rep, p *sim.Proc, m *core.Machine)
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func (w *workloadDef) opsFor(quick bool) int {
	if quick {
		return w.ops / 20
	}
	return w.ops
}

// counter indexes one public counter the per-layer run.* metrics are
// derived from.
type counter int

const (
	cDispatches counter = iota
	cRingMsgs
	cRingBytes
	cPathP2P
	cPathBuffered
	cPathCacheHit
	cCacheHits
	cCacheMisses
	cCacheEvictions
	cPCIeTxns
	cNVMeCmds
	cNVMeDoorbells
	cNVMeBytes
	cFlashBusyNs
	cKVGets
	cKVPuts
	cKVLogBytes
	cMallocs
	cAllocBytes
	cGCCycles
	cGCPauseNs
	numCounters
)

// counters is a snapshot of them, or the difference of two.
type counters [numCounters]int64

func snapshot(m *core.Machine, shards []*kvstore.Shard) counters {
	var c counters
	c[cDispatches] = m.Engine.Dispatches()
	for _, phi := range m.Phis {
		sent, _, bytes := phi.Conn.RingStats()
		c[cRingMsgs] += sent
		c[cRingBytes] += bytes
		if phi.Net != nil {
			sent, _, bytes = phi.Net.RPC().RingStats()
			c[cRingMsgs] += sent
			c[cRingBytes] += bytes
		}
	}
	c[cPathP2P], c[cPathBuffered], c[cPathCacheHit] = m.FSProxy.PathStats()
	c[cCacheHits], c[cCacheMisses], c[cCacheEvictions] = m.FSProxy.Cache.Stats()
	c[cPCIeTxns] = m.Fabric.Transactions()
	st := m.SSD.Stats()
	c[cNVMeCmds], c[cNVMeDoorbells], c[cNVMeBytes] = st.Commands, st.Doorbells, st.ReadBytes+st.WriteBytes
	c[cFlashBusyNs] = int64(m.SSD.FlashBusy())
	for _, sh := range shards {
		ks := sh.Stats()
		c[cKVGets] += ks.Gets
		c[cKVPuts] += ks.Puts
		c[cKVLogBytes] += ks.LogBytes
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	c[cGCCycles], c[cGCPauseNs] = int64(ms.NumGC), int64(ms.PauseTotalNs)
	return c
}

// rep is one repetition of a workload on a fresh machine: what the body
// records, and what the driver measures around it.
type rep struct {
	ops    int
	in     any     // the workload's prepared inputs
	seg    int     // which segment of them this repetition runs
	tr     *tracer // nil unless this is the traced repetition
	shards []*kvstore.Shard

	lat     []sim.Time // per op; open loop: from scheduled arrival, late ops at the time-out
	failed  int        // call returned an error or wrong data
	late    int        // open loop: completed after the client time-out
	excess  sim.Time   // open loop: what the late ops took beyond the time-out, summed
	genLate sim.Time   // open loop: worst lateness of the dispatcher
	// verify is wall time the body spent checking outputs inside the timed
	// region; it is the benchmark's own work and is taken out of wall.
	verify time.Duration

	t0          time.Time // before core.NewMachine
	setup       time.Duration
	wallStart   time.Time
	wall        time.Duration
	first, last sim.Time // virtual span of the timed region
	before, d   counters // d is the delta over the timed region
	digest      uint64
	problems    []string
}

func (r *rep) problem(format string, args ...any) {
	if len(r.problems) < 16 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed op and keeps the first few reasons.
func (r *rep) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// begin marks the first timed op: set-up ends here.
func (r *rep) begin(p *sim.Proc, m *core.Machine) {
	r.setup = time.Since(r.t0)
	runtime.GC()
	r.before = snapshot(m, r.shards)
	r.first = p.Now()
	r.tr.region(p, "timed")
	r.wallStart = time.Now()
}

// end marks the last completion of the timed region.
func (r *rep) end(p *sim.Proc, m *core.Machine) {
	r.wall = time.Since(r.wallStart) - r.verify
	r.last = p.Now()
	r.tr.region(p, "teardown")
	r.d = snapshot(m, r.shards)
	for i := range r.d {
		r.d[i] -= r.before[i]
	}
}

// runRep builds a fresh machine, runs the workload body on segment seg of the
// inputs and checks the disk image afterwards. sink and tr are nil except
// for the traced repetition.
func (w *workloadDef) runRep(in any, seg, ops int, sink *telemetry.Sink, tr *tracer) *rep {
	// Free the previous repetition's machine first and hand its memory back
	// to the OS, so that peak RSS is one machine's and every repetition
	// builds its machine on fresh pages: left to the scavenger's timing,
	// set-up time falls into two or three modes.
	debug.FreeOSMemory()
	r := &rep{ops: ops, in: in, seg: seg, tr: tr, lat: make([]sim.Time, ops)}
	r.t0 = time.Now()
	cfg := w.cfg
	if sink != nil {
		cfg.Telemetry, cfg.Tracing = sink, true
	}
	tr.region(nil, "setup")
	mk := tr.start(nil)
	m := core.NewMachine(cfg)
	if w.net {
		m.EnableNetwork()
	}
	tr.finish(nil, "core_new_machine", -1, mk)
	err := m.Run(func(p *sim.Proc, m *core.Machine) {
		w.body(r, p, m)
	})
	if err != nil {
		r.problem("simulation did not drain: %v", err)
	}
	r.shards = nil // they hold the whole machine, and the caller may keep r
	r.digest = m.Engine.TraceDigest()
	if rp := fs.Check(m.SSD.Image()); !rp.OK() {
		r.problem("fsck after shutdown: %v", rp.Problems)
	}
	if r.genLate != 0 {
		r.problem("open-loop dispatcher ran %v late", r.genLate)
	}
	return r
}

// meanLatency is the mean per-op latency in virtual ns, late ops uncensored.
func (r *rep) meanLatency() float64 {
	sum := r.excess
	for _, l := range r.lat {
		sum += l
	}
	return float64(sum) / float64(r.ops)
}

// simStats are the virtual-time results of repetitions; for one seed and
// segment they must repeat exactly.
type simStats struct {
	ops, failed, late int
	span              sim.Time
	p50, p99          sim.Time
	digest            uint64
}

func (s *simStats) goodputKops() float64 {
	return float64(s.ops-s.failed-s.late) / s.span.Seconds() / 1e3
}

// rateKops is the rate ops completed at, timely or late.
func (s *simStats) rateKops() float64 { return float64(s.ops-s.failed) / s.span.Seconds() / 1e3 }

// pool folds repetitions into one set of results: the percentiles are over
// all their latencies and the rates over the sum of their spans.
func pool(reps ...*rep) simStats {
	var s simStats
	var lat []sim.Time
	digest := fnv.New64a()
	for _, r := range reps {
		s.ops += r.ops
		s.failed += r.failed
		s.late += r.late
		s.span += r.last - r.first
		addUint64(digest, r.digest)
		lat = append(lat, r.lat...)
	}
	s.digest = digest.Sum64()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.p50, s.p99 = percentile(lat, 50), percentile(lat, 99)
	return s
}

// percentile is nearest-rank on a sorted sample.
func percentile(sorted []sim.Time, pct int) sim.Time {
	idx := (len(sorted)*pct + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// quartiles returns the median and the first and third quartile of xs
// (linear interpolation between closest ranks).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func (r *result) setMedian(name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.Metrics[name] = metric{Value: med, Unit: units[name], Q1: q1, Q3: q3, N: len(xs)}
}

func newResult(w *workloadDef, o options) result {
	return result{
		Workload: w.name, Seed: o.seed, Correct: true,
		Metrics: map[string]metric{},
		Host: map[string]string{
			"nproc":      strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
		},
	}
}

// runEndToEnd is a -trace 0 run, tracing off. Repetition i runs segment
// i mod segments of the inputs on a fresh machine. The first `segments`
// repetitions are pooled into the virtual-time metrics; every later one
// repeats a segment and must reproduce its virtual-time results exactly.
// One such repeat always runs, more while o.seconds of wall time are not
// used up. Wall and host metrics are medians over all repetitions.
func runEndToEnd(w *workloadDef, o options) result {
	res := newResult(w, o)
	ops, nseg := w.opsFor(o.quick), segments
	if o.quick {
		nseg = 1
	}
	in := w.prepare(o.seed, ops, nseg, o.quick)
	res.InputSum = fmt.Sprintf("%016x", inputChecksum(in))

	var wall, allocs, bytes, setup []float64
	firsts := make([]*rep, nseg)
	start := time.Now()
	for i := 0; i <= nseg || (!o.quick && time.Since(start).Seconds() < o.seconds); i++ {
		seg := i % nseg
		r := w.runRep(in, seg, ops, nil, nil)
		for _, p := range r.problems {
			res.problem("rep %d: %s", i, p)
		}
		if firsts[seg] == nil {
			firsts[seg] = r
		} else if got, want := pool(r), pool(firsts[seg]); got != want {
			res.problem("rep %d repeats segment %d with other virtual-time results: %+v, first %+v", i, seg, got, want)
		}
		res.Attempted += r.ops
		res.Failed += r.failed
		res.Late += r.late
		wall = append(wall, float64(r.wall.Nanoseconds())/1e3/float64(r.ops))
		allocs = append(allocs, float64(r.d[cMallocs])/float64(r.ops))
		bytes = append(bytes, float64(r.d[cAllocBytes])/float64(r.ops))
		setup = append(setup, r.setup.Seconds())
	}
	s := pool(firsts...)
	res.SimDigest = fmt.Sprintf("%016x", s.digest)
	res.set("sim_goodput_kops", s.goodputKops())
	res.set("sim_p50_us", float64(s.p50)/1e3)
	res.Metrics["sim_p99_us"] = metric{Value: float64(s.p99) / 1e3, Unit: units["sim_p99_us"], N: s.ops}
	if w.knee != nil {
		res.set("sim_knee_kops", w.knee(w, in, o.quick))
	} else {
		// Not an open loop below saturation: the rate the machine
		// sustains is the rate it completed ops at.
		res.set("sim_knee_kops", s.rateKops())
	}
	res.setMedian("wall_us_per_op", wall)
	res.setMedian("host_allocs_per_op", allocs)
	res.setMedian("host_alloc_bytes_per_op", bytes)
	res.setMedian("setup_s", setup)
	res.set("host_peak_rss_mb", peakRSSMB())
	return res
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

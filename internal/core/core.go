// Package core assembles a Solros machine: the PCIe fabric with its NUMA
// topology, Xeon Phi co-processors, the NVMe SSD with a solrosfs file
// system, the control-plane proxies on the host, and data-plane stubs on
// every co-processor. It is the top-level API examples and benchmarks
// program against.
package core

import (
	"fmt"

	"solros/internal/block"
	"solros/internal/controlplane"
	"solros/internal/cpu"
	"solros/internal/dataplane"
	"solros/internal/faults"
	"solros/internal/fs"
	"solros/internal/model"
	"solros/internal/netstack"
	"solros/internal/nvme"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/telemetry"
	"solros/internal/telemetry/analyze"
	"solros/internal/transport"
)

// Config sizes a machine. Zero values take the defaults noted per field.
// The paper's testbed is 2 sockets x 24 cores, 4 Xeon Phis (2 per
// socket), and one NVMe SSD on socket 0 (§6).
type Config struct {
	// Phis is the co-processor count (default 1). Phis are striped
	// across sockets: the first half on socket 0, the rest on socket 1,
	// as in the paper's testbed.
	Phis int
	// PhiMemBytes is each co-processor's on-card memory (default 64 MB).
	PhiMemBytes int64
	// HostRAMBytes is host DRAM backing rings, cache, and staging
	// (default 256 MB).
	HostRAMBytes int64
	// DiskBytes is the NVMe capacity (default 64 MB).
	DiskBytes int64
	// CacheBytes is the shared host buffer cache (default 16 MB).
	CacheBytes int64
	// ProxyWorkers is the number of proxy procs per co-processor
	// channel (default 4). With ProxyShards set it is the executor count
	// per shard instead.
	ProxyWorkers int
	// ProxyShards partitions the control plane (§6.3 scale-out): FSProxy
	// request service and TCPProxy connection admission split into this
	// many NUMA-aligned shards, each with its own serve loop, lock,
	// pending-fill map, and accept queue. Zero (the default) keeps the
	// seed's per-channel serve loops and global tables — every figure is
	// byte-identical. Shard counts above the co-processor count clamp.
	ProxyShards int
	// ShardFids gives each proxy shard a private fid table. With
	// ProxyShards set but ShardFids off, fid-touching RPCs serialize on
	// one global fid-table lock — the ablation that shows why sharding
	// the data structures matters, not just the serve loops.
	ShardFids bool
	// CoalesceOff disables the optimized IO-vector NVMe driver
	// (ablation; §5).
	CoalesceOff bool
	// ForceP2P disables the proxy's cross-NUMA buffered fallback
	// (ablation for Figure 1a's cross-NUMA series).
	ForceP2P bool
	// DisableCache bypasses the shared buffer cache (ablation).
	DisableCache bool
	// Pipeline makes data-plane FS stubs split large reads/writes into a
	// sliding window of in-flight chunk RPCs with sequential readahead
	// (default off; ablation for the pipeline bench).
	Pipeline bool
	// PipelineWindow bounds in-flight chunk RPCs per call (default 4).
	PipelineWindow int
	// PipelineChunkBytes sets the pipelined chunk size (default 256 KB).
	PipelineChunkBytes int64
	// BatchRecv drains RPC rings in combiner-amortized batches: the
	// proxy's serve loops and the data-plane dispatchers use RecvBatch
	// instead of Recv (default off).
	BatchRecv bool
	// Overlap double-buffers the proxy's buffered reads so NVMe fills
	// proceed under PCIe streaming (default off).
	Overlap bool
	// RingOptions overrides transport ring parameters.
	RingOptions transport.Options
	// LinkGenScale multiplies co-processor PCIe link bandwidth (1 =
	// the paper's Gen2 x16; 2 ~ Gen3; 4 ~ Gen4) for interconnect
	// sensitivity studies.
	LinkGenScale int
	// SkipMkfs leaves the disk unformatted so an existing image can be
	// installed (reboot/recovery scenarios); copy it into SSD.Image()
	// before Run.
	SkipMkfs bool
	// Faults installs a deterministic fault-injection plan (see
	// internal/faults) and arms degraded-mode recovery: proxy-side
	// transient-I/O retries, p2p->buffered fallbacks, and channel
	// crash/reattach per the plan's crash schedule. Nil (the default)
	// injects nothing and leaves every figure untouched.
	Faults *faults.Plan
	// RPCDeadline arms per-RPC deadlines on data-plane connections: a
	// call silent past the deadline is resent under the same tag with
	// exponential backoff. Zero waits forever (default).
	RPCDeadline sim.Time
	// RPCRetries bounds same-tag resends per RPC (default 0). Ring
	// message drops from the fault plan are only armed when this is
	// positive — without resends a dropped RPC would wedge the caller.
	RPCRetries int
	// Telemetry receives spans and metrics from every subsystem; nil
	// falls back to telemetry.Default (also usually nil — telemetry off).
	Telemetry *telemetry.Sink
	// Tracing arms end-to-end causal tracing: every data-plane RPC root
	// gets a deterministic trace ID carried inside the ninep frame, so a
	// delegated I/O is one causal tree across stub, rings, proxy, cache,
	// and NVMe. The 16-byte trace trailer changes wire sizes, and so
	// timing — keep it off (the default) when reproducing figures. When
	// set with a nil Telemetry sink, a private sink is created so spans
	// have somewhere to land.
	Tracing bool
	// FlightRecorder, when non-empty, arms the always-on bounded flight
	// recorder: the sink keeps the last N spans in a ring and dumps a
	// replayable JSON blackbox into this directory when a fault fires,
	// an oracle records a violation, or the sim deadlocks. Recording
	// never touches virtual time, so figures are unchanged.
	FlightRecorder string
	// Windows arms continuous observability: the run is cut into
	// fixed-length windows of the sim clock and every stage and queue is
	// rolled up per window (throughput, p50/p99, utilization, Little's-law
	// occupancy). Purely passive — no sampler proc, no virtual-time
	// perturbation — so figures are unchanged. Zero (the default) is off.
	// When set with a nil Telemetry sink, a private sink is created.
	Windows sim.Time
	// SLO arms the tail-latency watchdog on the windowed rollups:
	// objectives are evaluated with multi-window burn rates, breaches
	// record telemetry SLOViolations and trigger the flight recorder. A
	// non-empty SLO with Windows zero defaults Windows to 1ms.
	SLO []telemetry.Objective
	// MetricsAddr, when non-empty, serves the sink over HTTP (OpenMetrics
	// text format at /metrics, windowed rollups at /metrics/windows) for
	// wall-clock observation of long runs.
	MetricsAddr string
	// Analyze arms the trace-analytics engine (internal/telemetry/analyze):
	// completed causal trees are folded into a bounded index keyed by
	// tenant and shard, with differential p99-vs-p50 blame reports, a
	// hot-shard detector feeding the SLO watchdog, and per-bucket
	// OpenMetrics exemplars. Implies Tracing (which changes wire sizes —
	// keep off when reproducing figures); the analysis itself is passive
	// and adds no virtual time on top of tracing. Default off.
	Analyze bool
	// AnalyzeRoots filters which root span names enter the trace index
	// (empty = all roots). Bench drivers set {"workload.request"} so
	// preload and connection-binding traffic does not dilute the index.
	AnalyzeRoots []string
	// AnalyzeTraces bounds the trace index ring (default 4096).
	AnalyzeTraces int
	// SchedSeed arms the sim kernel's seeded tie-break policy: procs
	// runnable at the same virtual timestamp are ordered by a per-push
	// PRNG stream instead of spawn order, so each seed explores a
	// different interleaving and replays byte-identically. Zero (the
	// default) keeps the historical deterministic order untouched.
	SchedSeed int64
	// SchedBudget bounds how many random tie-break draws the seeded
	// policy makes before reverting to deterministic order (0 =
	// unlimited); the explorer's shrinker uses it to minimize failures.
	SchedBudget int64
	// Oracles are machine-wide invariant checkers polled at every
	// scheduling decision (see Oracle). The first violation is recorded
	// on the machine (Machine.Violation) and checking stops. Empty by
	// default — zero cost for every figure.
	Oracles []Oracle
	// OracleEvery polls the oracles every N dispatches (default 1, i.e.
	// at every scheduling decision).
	OracleEvery int
	// KVCompact arms online log compaction in the KV store shards
	// (internal/apps/kvstore). Default off: serving runs pay no
	// maintenance stalls unless the experiment asks for them.
	KVCompact bool
	// KVCompactFrac is the dead-byte fraction of a shard's log that
	// triggers a compaction when KVCompact is armed (default 0.5).
	KVCompactFrac float64
	// KVCompactEvery is how many appends pass between compaction checks
	// (default 64).
	KVCompactEvery int
}

// Oracle is a machine-wide invariant checker for schedule exploration. The
// engine polls each registered oracle at dispatch points; Check returns a
// non-nil error to report a violation. Checks run between proc executions,
// so they observe a consistent (serialized) machine state, and they must
// not mutate it or advance virtual time. Check must tolerate a machine
// that has not booted yet (FSProxy and FS are nil until boot).
type Oracle interface {
	Name() string
	Check(m *Machine) error
}

// Violation records the first invariant failure an oracle detected.
type Violation struct {
	// Oracle is the reporting oracle's name.
	Oracle string
	// Err is the invariant violation.
	Err error
	// At is the virtual time of the scheduling decision that exposed it.
	At sim.Time
	// Dispatch is the dispatch ordinal (Engine.Dispatches) at detection.
	Dispatch int64
}

// DefaultTracing and DefaultFlightRecorder are process-wide fallbacks for
// the corresponding Config fields, applied in fill() when the field is
// zero. They exist so CLI flags (solros-bench -trace-requests, -flightrec)
// can arm observability on every machine an experiment builds without
// threading knobs through each figure's plumbing — mirroring how
// telemetry.Default backstops Config.Telemetry.
var (
	DefaultTracing        bool
	DefaultFlightRecorder string
	DefaultWindows        sim.Time
	DefaultSLO            []telemetry.Objective
	DefaultMetricsAddr    string
)

func (c *Config) fill() {
	if !c.Tracing {
		c.Tracing = DefaultTracing
	}
	if c.FlightRecorder == "" {
		c.FlightRecorder = DefaultFlightRecorder
	}
	if c.Windows == 0 {
		c.Windows = DefaultWindows
	}
	if len(c.SLO) == 0 {
		c.SLO = DefaultSLO
	}
	if c.MetricsAddr == "" {
		c.MetricsAddr = DefaultMetricsAddr
	}
	if len(c.SLO) > 0 && c.Windows <= 0 {
		c.Windows = sim.Millisecond // burn rates need windows to burn over
	}
	if c.Analyze && !c.Tracing {
		c.Tracing = true // the index is built from causal trees
	}
	if c.Phis == 0 {
		c.Phis = 1
	}
	if c.PhiMemBytes == 0 {
		c.PhiMemBytes = 64 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.HostRAMBytes == 0 {
		c.HostRAMBytes = 256 << 20
		// Fleet-scale topologies: every co-processor's network inbound
		// ring masters in host DRAM (>= 8 MB each) and staging grows with
		// channel count, so the default that fits the paper's 4-phi
		// testbed would exhaust the bump allocator at dozens of phis.
		// Only the zero-value default grows — explicit sizes are honored.
		// Memory capacity has no virtual-time cost, so this cannot move
		// any figure.
		if need := int64(c.Phis)*(16<<20) + c.CacheBytes + (128 << 20); need > c.HostRAMBytes {
			c.HostRAMBytes = need
		}
	}
	if c.DiskBytes == 0 {
		c.DiskBytes = 64 << 20
	}
	if c.ProxyWorkers == 0 {
		c.ProxyWorkers = 4
	}
	if c.RingOptions.CapBytes == 0 {
		c.RingOptions.CapBytes = 4 << 20
	}
	if c.LinkGenScale == 0 {
		c.LinkGenScale = 1
	}
}

// Phi is one co-processor with its data-plane OS.
type Phi struct {
	Dev  *pcie.Device
	Conn *dataplane.Conn
	FS   *dataplane.FSClient
	Net  *dataplane.NetClient
	Pool *cpu.Pool

	proxyReq, proxyResp *transport.Port
	netConn             *dataplane.Conn
}

// Machine is an assembled Solros system.
type Machine struct {
	Engine  *sim.Engine
	Fabric  *pcie.Fabric
	SSD     *nvme.Device
	FS      *fs.FS
	FSProxy *controlplane.FSProxy
	Phis    []*Phi
	Host    *cpu.Pool

	// Networking (nil unless EnableNetwork was called).
	Net         *netstack.Network
	HostStack   *netstack.Stack
	ClientStack *netstack.Stack
	TCPProxy    *controlplane.TCPProxy

	cfg       Config
	inj       *faults.Injector
	tel       *telemetry.Sink
	analyzer  *analyze.Analyzer
	booted    bool
	stopped   bool
	violation *Violation
}

// Config reports the machine's (filled) configuration, so layered
// subsystems built on top of a machine — the KV store's shards, for
// example — can inherit its knobs without re-threading them.
func (m *Machine) Config() Config { return m.cfg }

// Telemetry reports the sink this machine's subsystems emit into (nil when
// telemetry is off). When Config.Tracing or Config.FlightRecorder armed a
// private sink, this is how callers reach it for reports.
func (m *Machine) Telemetry() *telemetry.Sink { return m.tel }

// Analyzer reports the machine's trace-analytics engine (nil unless
// Config.Analyze armed it) — the handle for blame reports and rollups
// after a run.
func (m *Machine) Analyzer() *analyze.Analyzer { return m.analyzer }

// Violation reports the first oracle violation of the run, or nil.
func (m *Machine) Violation() *Violation { return m.violation }

// Injector exposes the machine's fault injector (nil when Config.Faults
// is nil), mainly so tests and benches can read the compiled plan.
func (m *Machine) Injector() *faults.Injector { return m.inj }

// NewMachine builds and formats a machine; the file system is mkfs'ed but
// not yet mounted (that happens in Run's boot phase, under timing).
func NewMachine(cfg Config) *Machine {
	cfg.fill()
	fab := pcie.New(cfg.HostRAMBytes)
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	if tel == nil && (cfg.Tracing || cfg.FlightRecorder != "" || cfg.Windows > 0) {
		// Tracing, the flight recorder, and windowed rollups need a sink to
		// land in; create a private one rather than silently dropping the
		// request.
		tel = telemetry.New(telemetry.Options{})
	}
	if tel != nil && cfg.FlightRecorder != "" {
		tel.ArmFlightRecorder(cfg.FlightRecorder, 0, 0)
	}
	if tel != nil && cfg.Windows > 0 {
		// Windows before objectives: the watchdog sizes its per-metric
		// window retention off the armed window length.
		tel.EnableWindows(cfg.Windows)
		if len(cfg.SLO) > 0 {
			tel.SetObjectives(cfg.SLO)
		}
	}
	if tel != nil && cfg.MetricsAddr != "" {
		if _, err := telemetry.ServeMetrics(cfg.MetricsAddr, tel); err != nil {
			panic("core: metrics addr: " + err.Error())
		}
	}
	var az *analyze.Analyzer
	if tel != nil && cfg.Analyze {
		az = analyze.New(analyze.Options{
			Capacity: cfg.AnalyzeTraces,
			Roots:    cfg.AnalyzeRoots,
		})
		tel.SetSpanObserver(az.OnSpan)
		tel.SetHotspotSource(az.Hotspot)
		tel.EnableExemplars()
	}
	// Wire telemetry before any device or ring exists so every subsystem
	// picks the sink up from the fabric as it is constructed.
	fab.SetTelemetry(tel)
	m := &Machine{
		Engine:   sim.NewEngine(),
		Fabric:   fab,
		Host:     cpu.HostPool(),
		cfg:      cfg,
		tel:      tel,
		analyzer: az,
	}
	if cfg.SchedSeed != 0 {
		m.Engine.SetSchedSeed(cfg.SchedSeed)
		m.Engine.SetSchedBudget(cfg.SchedBudget)
	}
	var telTracer sim.Tracer
	if tel != nil {
		telTracer = tel.SchedTracer()
	}
	if len(cfg.Oracles) > 0 {
		every := int64(cfg.OracleEvery)
		if every < 1 {
			every = 1
		}
		var polls int64
		m.Engine.SetTracer(func(ev sim.Event) {
			if telTracer != nil {
				telTracer(ev)
			}
			// Oracles observe the machine between proc executions, where
			// state is consistent. After the first violation, stop: later
			// checks would only report knock-on damage.
			if ev.Kind != sim.EvDispatch || m.violation != nil {
				return
			}
			polls++
			if polls%every != 0 {
				return
			}
			for _, o := range cfg.Oracles {
				if err := o.Check(m); err != nil {
					m.violation = &Violation{
						Oracle:   o.Name(),
						Err:      err,
						At:       ev.Time,
						Dispatch: m.Engine.Dispatches(),
					}
					// The tracer runs between proc executions, so there is
					// no current proc; the recorder falls back to the
					// newest ringed trace.
					tel.TriggerFlight(nil, "oracle-"+o.Name())
					return
				}
			}
		})
	} else if telTracer != nil {
		m.Engine.SetTracer(telTracer)
	}
	if cfg.Faults != nil {
		m.inj = faults.NewInjector(cfg.Faults, tel)
		fab.SetInjector(m.inj)
	}
	m.SSD = nvme.New(fab, "nvme0", 0, cfg.DiskBytes)
	if m.inj != nil {
		m.SSD.SetInjector(m.inj)
	}
	if !cfg.SkipMkfs {
		if err := fs.Mkfs(m.SSD.Image(), 0); err != nil {
			panic("core: mkfs: " + err.Error())
		}
	}
	for i := 0; i < cfg.Phis; i++ {
		socket := 0
		if cfg.Phis > 1 && i >= (cfg.Phis+1)/2 {
			socket = 1
		}
		scale := int64(cfg.LinkGenScale)
		dev := fab.AddDevice(fmt.Sprintf("phi%d", i), socket, cfg.PhiMemBytes,
			scale*model.LinkBWPhiToHost, scale*model.LinkBWHostToPhi)
		conn, reqPort, respPort := dataplane.NewConn(fab, dev, cfg.RingOptions)
		conn.Tracing = cfg.Tracing
		conn.BatchRecv = cfg.BatchRecv
		conn.Deadline = cfg.RPCDeadline
		conn.Retries = cfg.RPCRetries
		conn.Reconnect = m.inj != nil
		m.armRings(reqPort, respPort)
		fsc := dataplane.NewFSClient(conn)
		fsc.Pipeline = cfg.Pipeline
		fsc.Window = cfg.PipelineWindow
		fsc.ChunkBytes = cfg.PipelineChunkBytes
		m.Phis = append(m.Phis, &Phi{
			Dev:       dev,
			Conn:      conn,
			FS:        fsc,
			Pool:      cpu.PhiPool(),
			proxyReq:  reqPort,
			proxyResp: respPort,
		})
	}
	return m
}

// armRings installs the fault injector on an RPC ring pair. Message drops
// are only enabled when RPC resends can recover them; dequeue stalls are
// harmless latency and always armed with the injector.
func (m *Machine) armRings(req, resp *transport.Port) {
	if m.inj == nil {
		return
	}
	lossy := m.cfg.RPCRetries > 0
	req.Ring().SetInjector(m.inj, lossy)
	resp.Ring().SetInjector(m.inj, lossy)
}

// boot mounts the file system and starts the control-plane proxy and
// data-plane dispatchers, all under timing.
func (m *Machine) boot(p *sim.Proc) {
	if m.booted {
		return
	}
	m.booted = true
	// Degraded-mode boot: mount reads go through the same NVMe the fault
	// injector targets, so ride out transient media errors like the data
	// path does (FSProxy.RetryIO below) instead of dying on one.
	tries := 1
	if m.inj != nil {
		tries = 4
	}
	var fsys *fs.FS
	var err error
	for i := 0; i < tries; i++ {
		fsys, err = fs.Mount(p, m.Fabric, block.NVMe{Dev: m.SSD})
		if err == nil {
			break
		}
	}
	if err != nil {
		panic("core: mount: " + err.Error())
	}
	m.FS = fsys
	m.FSProxy = controlplane.NewFSProxy(m.Fabric, fsys, m.SSD, m.cfg.CacheBytes)
	m.FSProxy.Coalesce = !m.cfg.CoalesceOff
	m.FSProxy.ForceP2P = m.cfg.ForceP2P
	m.FSProxy.DisableCache = m.cfg.DisableCache
	m.FSProxy.BatchRecv = m.cfg.BatchRecv
	m.FSProxy.Overlap = m.cfg.Overlap
	m.FSProxy.Shards = m.cfg.ProxyShards
	m.FSProxy.ShardFids = m.cfg.ShardFids
	for _, phi := range m.Phis {
		m.FSProxy.Attach(phi.Dev, phi.proxyReq, phi.proxyResp)
		phi.Conn.Start(p)
	}
	if m.inj != nil {
		// Degraded mode: ride out transient media errors and failed p2p
		// DMAs instead of surfacing them to applications.
		m.FSProxy.RetryIO = 3
	}
	m.FSProxy.Start(p, m.cfg.ProxyWorkers)
	m.bootNetwork(p)
	m.startCrashSchedule(p)
}

// startCrashSchedule spawns the proc that executes the fault plan's
// channel-crash timeline: at each CrashTime it severs the victim
// co-processor's RPC channel, waits out the downtime, and brings the
// channel back with fresh rings. A machine already shut down stops the
// schedule.
func (m *Machine) startCrashSchedule(p *sim.Proc) {
	if m.inj == nil {
		return
	}
	plan := m.inj.Plan()
	if len(plan.CrashTimes) == 0 {
		return
	}
	victim := plan.CrashPhi
	if victim < 0 || victim >= len(m.Phis) {
		victim = 0
	}
	p.Spawn("faults-crash-schedule", func(cp *sim.Proc) {
		for _, t := range plan.CrashTimes {
			if t > cp.Now() {
				cp.AdvanceTo(t)
			}
			if m.stopped {
				return
			}
			m.CrashChannel(cp, victim)
			cp.Advance(plan.CrashDowntime)
			if m.stopped {
				return
			}
			m.RecoverChannel(cp, victim)
		}
	})
}

// CrashChannel severs co-processor i's FS RPC channel as a fault: rings
// close, in-flight calls fail, the dispatcher exits. Reconnectable via
// RecoverChannel.
func (m *Machine) CrashChannel(p *sim.Proc, i int) {
	m.Phis[i].Conn.Crash(p)
}

// RecoverChannel rebuilds co-processor i's crashed FS channel: fresh
// rings (re-armed with the injector), a new dispatcher, and a proxy
// reattach on the same channel index so open fids survive the outage.
// Sibling co-processors are untouched throughout.
func (m *Machine) RecoverChannel(p *sim.Proc, i int) {
	phi := m.Phis[i]
	req, resp := phi.Conn.Reset(p)
	if req == nil {
		return // closed for good; nothing to recover
	}
	m.armRings(req, resp)
	phi.proxyReq, phi.proxyResp = req, resp
	m.FSProxy.Reattach(p, i, req, resp)
}

// shutdown closes every RPC connection so service procs drain and exit.
func (m *Machine) shutdown(p *sim.Proc) {
	m.stopped = true // parks the crash schedule's next firing
	m.shutdownNetwork(p)
	for _, phi := range m.Phis {
		phi.Conn.Close(p)
	}
}

// Run boots the machine, executes main, then shuts it down; it returns
// when the virtual-time simulation has fully drained. main must not
// return before the workload procs it spawned have finished (use
// Parallel).
func (m *Machine) Run(main func(p *sim.Proc, m *Machine)) error {
	m.Engine.Spawn("main", 0, func(p *sim.Proc) {
		m.boot(p)
		main(p, m)
		m.shutdown(p)
	})
	err := m.Engine.Run()
	if err != nil {
		// A deadlocked sim is exactly what the flight recorder is for:
		// dump the last spans so the wedge is diagnosable post-mortem.
		m.tel.TriggerFlight(nil, "sim-deadlock")
	} else {
		// Seal the windowed rollups at the engine's final virtual time so
		// the trailing window reports complete and the SLO watchdog gets
		// its final evaluation.
		m.tel.SealWindows(m.Engine.Now())
	}
	return err
}

// MustRun is Run but panics on simulation deadlock.
func (m *Machine) MustRun(main func(p *sim.Proc, m *Machine)) {
	if err := m.Run(main); err != nil {
		panic(err)
	}
}

// Parallel spawns n workload procs and blocks until all complete. worker
// receives its index and a dedicated Proc; by convention it pins itself
// to hardware thread i of whatever pool it targets.
func Parallel(p *sim.Proc, n int, name string, worker func(i int, wp *sim.Proc)) {
	wg := sim.NewWaitGroup(name)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.Spawn(fmt.Sprintf("%s-%d", name, i), func(wp *sim.Proc) {
			worker(i, wp)
			wp.DoneWG(wg)
		})
	}
	p.WaitWG(wg)
}

// PhiCount reports the configured number of co-processors.
func (m *Machine) PhiCount() int { return len(m.Phis) }

// DefaultPhiThreads reports the paper's per-Phi core count, for sizing
// workloads.
func DefaultPhiThreads() int { return model.PhiCores }

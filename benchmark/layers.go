package main

import (
	"fmt"
	"runtime"
	"time"

	"solros/internal/apps/kvstore"
	"solros/internal/block"
	"solros/internal/cache"
	"solros/internal/core"
	"solros/internal/cpu"
	"solros/internal/fs"
	"solros/internal/netstack"
	"solros/internal/ninep"
	"solros/internal/nvme"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/transport"
	"solros/internal/workload"
)

// The layer harnesses: each calls one module's public functions in a loop,
// on a bare engine and fabric or on a minimal machine, and reports the cost
// of one call on both clocks and in mallocs. They run the same way whatever
// the workload, so a per-layer number means the same thing in every run.

// probe is the cost of one call.
type probe struct{ wallNs, simNs, allocs float64 }

// harnessBatches is how many batches a harness times; it reports the median.
const harnessBatches = 5

// harnesses is the table: the metric prefix, the calls per batch (sized for
// 20-50 ms a batch) and the harness, which takes that count.
var harnesses = []struct {
	prefix string
	n      int
	run    func(n int) probe
}{
	{"sim.advance_self", 100000, simAdvanceSelf},
	{"sim.advance_handoff", 50000, simAdvanceHandoff},
	{"sim.resource_use", 12000, simResourceUse},
	{"sim.cond_pingpong", 50000, simCondPingPong},
	{"sim.spawn", 20000, simSpawn},
	{"transport.sendrecv_64b", 20000, transportSendRecv},
	{"ninep.codec", 200000, ninepCodec},
	{"rpc.stat", 5000, rpcStat},
	{"rpc.open_close", 2500, rpcOpenClose},
	{"net.echo_64b", 2500, netEcho},
	{"cache.lookup_hit", 400000, cacheLookupHit},
	{"cache.insert_evict", 200000, cacheInsertEvict},
	{"pcie.dma_4kb", 20000, func(n int) probe { return pcieDMA(n, 4<<10) }},
	{"pcie.dma_64kb", 20000, func(n int) probe { return pcieDMA(n, 64<<10) }},
	{"nvme.read_64kb", 20000, func(n int) probe { return nvmeIO(n, false, 64<<10) }},
	{"nvme.write_64kb", 20000, func(n int) probe { return nvmeIO(n, true, 64<<10) }},
	{"nvme.read_4kb", 20000, func(n int) probe { return nvmeIO(n, false, 4<<10) }},
	{"fs.read_64kb", 10000, fsRead64K},
	{"fs.append_64kb", 1000, fsAppend64K},
	{"fs.append_256b", 4000, fsAppend256B},
	{"fs.create_unlink", 4000, fsCreateUnlink},
	{"fs.sync", 60, fsSync},
	{"netstack.pingpong_64b", 10000, netstackPingPong},
	{"kvstore.get_hit", 4000, func(n int) probe { return kvShard(n, "get_hit") }},
	{"kvstore.get_miss", 1200, func(n int) probe { return kvShard(n, "get_miss") }},
	{"kvstore.put", 1200, func(n int) probe { return kvShard(n, "put") }},
	{"workload.gen", 20000, workloadGen},
}

// runLayers runs every harness and stores the metrics that harnessMetrics
// names: prefix_wall_ns, prefix_sim_ns, prefix_allocs. quick shrinks the
// batches twentyfold.
func runLayers(res *result, quick bool) {
	for _, h := range harnesses {
		n := h.n
		if quick {
			n = max(n/20, 8)
		}
		pr := h.run(n)
		for suffix, v := range map[string]float64{"_wall_ns": pr.wallNs, "_sim_ns": pr.simNs, "_allocs": pr.allocs} {
			if _, ok := units[h.prefix+suffix]; ok {
				res.set(h.prefix+suffix, v)
			}
		}
	}
}

// timed runs fn n times and returns the cost per call. p is the proc whose
// virtual clock the calls advance, nil for code that takes no virtual time.
func timed(p *sim.Proc, n int, fn func(i int)) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, s0, t0 := ms.Mallocs, simNow(p), time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	wall, s1 := time.Since(t0), simNow(p)
	runtime.ReadMemStats(&ms)
	return probe{
		wallNs: float64(wall.Nanoseconds()) / float64(n),
		simNs:  float64(s1-s0) / float64(n),
		allocs: float64(ms.Mallocs-mallocs) / float64(n),
	}
}

// batches times harnessBatches batches of n calls, running before (if not
// nil) ahead of each, and returns the per-field median.
func batches(p *sim.Proc, n int, before func(), fn func(i int)) probe {
	var ps []probe
	for b := 0; b < harnessBatches; b++ {
		if before != nil {
			before()
		}
		ps = append(ps, timed(p, n, fn))
	}
	return medianProbe(ps)
}

func medianProbe(ps []probe) probe {
	med := func(get func(probe) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = get(p)
		}
		_, m, _ := quartiles(xs)
		return m
	}
	return probe{
		wallNs: med(func(p probe) float64 { return p.wallNs }),
		simNs:  med(func(p probe) float64 { return p.simNs }),
		allocs: med(func(p probe) float64 { return p.allocs }),
	}
}

// onEngine runs fn as the only initial proc of a fresh engine.
func onEngine(fn func(p *sim.Proc)) {
	e := sim.NewEngine()
	e.Spawn("harness", 0, fn)
	e.MustRun()
}

// onMachine runs fn on a booted default machine with one phi.
func onMachine(net bool, fn func(p *sim.Proc, m *core.Machine)) {
	m := core.NewMachine(core.Config{Phis: 1})
	if net {
		m.EnableNetwork()
	}
	m.MustRun(fn)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// --- sim ---------------------------------------------------------------------

// A lone proc advancing its own clock: it is still the earliest, so this is
// the cost of a dispatch that switches to nobody.
func simAdvanceSelf(n int) (pr probe) {
	onEngine(func(p *sim.Proc) {
		pr = batches(p, n, nil, func(int) { p.Advance(1) })
	})
	return pr
}

// Two procs alternating: every Advance hands the engine to the other proc.
func simAdvanceHandoff(n int) (pr probe) {
	e := sim.NewEngine()
	stop := false
	e.Spawn("partner", 1, func(p *sim.Proc) {
		for !stop {
			p.Advance(2)
		}
	})
	e.Spawn("harness", 0, func(p *sim.Proc) {
		pr = batches(p, n, nil, func(int) { p.Advance(2) })
		stop = true
	})
	e.MustRun()
	pr.wallNs /= 2 // each call of the harness proc is two dispatches
	return pr
}

// Eight procs queueing on one Resource.
func simResourceUse(n int) (pr probe) {
	const procs = 8
	e := sim.NewEngine()
	r := sim.NewResource("r", 1<<30, 0)
	stop := false
	for i := 1; i < procs; i++ {
		e.Spawn(fmt.Sprintf("user-%d", i), 0, func(p *sim.Proc) {
			for !stop {
				p.Use(r, 64)
			}
		})
	}
	e.Spawn("harness", 0, func(p *sim.Proc) {
		pr = batches(p, n, nil, func(int) { p.Use(r, 64) })
		stop = true
	})
	e.MustRun()
	pr.wallNs /= procs
	return pr
}

// Two procs waking each other through a pair of Conds; one call is a full
// round trip, two park/wake pairs.
func simCondPingPong(n int) (pr probe) {
	e := sim.NewEngine()
	ping, pong := sim.NewCond("ping"), sim.NewCond("pong")
	stop := false
	e.Spawn("echo", 0, func(p *sim.Proc) {
		for {
			p.Wait(ping)
			if stop {
				return
			}
			p.Signal(pong)
		}
	})
	e.Spawn("harness", 1, func(p *sim.Proc) {
		pr = batches(p, n, nil, func(int) {
			p.Signal(ping)
			p.Wait(pong)
		})
		stop = true
		p.Signal(ping)
	})
	e.MustRun()
	return pr
}

// Spawning a child that exits at once, and waiting for it.
func simSpawn(n int) (pr probe) {
	onEngine(func(p *sim.Proc) {
		wg := sim.NewWaitGroup("children")
		pr = batches(p, n, nil, func(int) {
			wg.Add(1)
			p.Spawn("child", func(cp *sim.Proc) { cp.DoneWG(wg) })
			p.WaitWG(wg)
		})
	})
	return pr
}

// --- transport + ringbuf -----------------------------------------------------

// A 64-byte message from a phi to the host over a ring mastered in phi
// memory, as the RPC rings are: Send on the phi port, Recv on the host port.
func transportSendRecv(n int) (pr probe) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 64<<20)
	ring := transport.NewRing(fab, phi, transport.Options{})
	tx, rx := ring.Port(phi, cpu.Phi), ring.Port(nil, cpu.Host)
	msg := make([]byte, 64)
	onEngine(func(p *sim.Proc) {
		pr = batches(p, n, nil, func(int) {
			tx.Send(p, msg)
			if _, ok := rx.Recv(p); !ok {
				panic("ring closed")
			}
		})
	})
	return pr
}

// --- ninep -------------------------------------------------------------------

// Encoding and decoding one Tread/Rread pair with the buffer-reusing calls.
func ninepCodec(n int) probe {
	tread := &ninep.Msg{Type: ninep.Tread, Tag: 7, Fid: 3, Off: 1 << 20, Count: 4096, Addr: 1 << 16}
	rread := &ninep.Msg{Type: ninep.Rread, Tag: 7, Count: 4096}
	var buf []byte
	var m ninep.Msg
	return batches(nil, n, nil, func(int) {
		for _, msg := range []*ninep.Msg{tread, rread} {
			buf = msg.AppendTo(buf[:0])
			must(ninep.DecodeInto(&m, buf))
		}
	})
}

// --- dataplane + controlplane, file system -----------------------------------

// FSClient.Stat: a full RPC round trip — stub, rings, proxy serve loop — that
// moves no data.
func rpcStat(n int) (pr probe) {
	onMachine(false, func(p *sim.Proc, m *core.Machine) {
		c := m.Phis[0].FS
		fd, err := c.Open(p, "/f", ninep.OCreate)
		must(err)
		pr = batches(p, n, nil, func(int) {
			_, _, err := c.Stat(p, "/f")
			must(err)
		})
		must(c.Close(p, fd))
	})
	return pr
}

// Open then Close of an existing file: the fid table path.
func rpcOpenClose(n int) (pr probe) {
	onMachine(false, func(p *sim.Proc, m *core.Machine) {
		c := m.Phis[0].FS
		fd, err := c.Open(p, "/f", ninep.OCreate)
		must(err)
		must(c.Close(p, fd))
		pr = batches(p, n, nil, func(int) {
			fd, err := c.Open(p, "/f", 0)
			must(err)
			must(c.Close(p, fd))
		})
	})
	return pr
}

// --- dataplane + controlplane, network ---------------------------------------

// A 64-byte echo: client stack, host stack, TCP proxy, phi socket and back.
func netEcho(n int) (pr probe) {
	const port = 7000
	onMachine(true, func(p *sim.Proc, m *core.Machine) {
		phi := m.Phis[0]
		must(phi.Net.Listen(p, port))
		done := sim.NewWaitGroup("echo")
		done.Add(1)
		p.Spawn("echo-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			sock, err := phi.Net.Accept(sp, port)
			must(err)
			for {
				msg, err := sock.RecvFull(sp, 64)
				if err != nil || len(msg) < 64 { // closed, or end of stream
					sock.Close(sp)
					return
				}
				sock.Send(sp, msg)
			}
		})
		conn, err := m.ClientStack.Dial(p, m.HostStack, port)
		must(err)
		side := conn.Side(m.ClientStack)
		msg := make([]byte, 64)
		pr = batches(p, n, nil, func(int) {
			side.Send(p, msg)
			_, err := side.RecvFull(p, 64)
			must(err)
		})
		side.Close(p)
		p.WaitWG(done)
	})
	return pr
}

// --- cache -------------------------------------------------------------------

const cacheHarnessBytes = 16 << 20

func fullCache() (*cache.Cache, int64) {
	c := cache.New(pcie.New(cacheHarnessBytes+(1<<20)), cacheHarnessBytes)
	pages := int64(c.Capacity())
	for blk := int64(0); blk < pages; blk++ {
		c.Insert(1, blk)
	}
	return c, pages
}

func cacheLookupHit(n int) probe {
	c, pages := fullCache()
	return batches(nil, n, nil, func(i int) {
		if _, ok := c.Lookup(1, int64(i)*7919%pages); !ok {
			panic("miss in a full cache")
		}
	})
}

// Inserting a new page into a full cache evicts the least recently used one.
func cacheInsertEvict(n int) probe {
	c, pages := fullCache()
	next := pages
	return batches(nil, n, nil, func(int) {
		c.Insert(1, next)
		next++
	})
}

// --- pcie --------------------------------------------------------------------

// A host-initiated DMA of size bytes from host RAM into phi memory.
func pcieDMA(n int, size int64) (pr probe) {
	fab := pcie.New(16 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	src, dst := pcie.Loc{Off: fab.HostRAM.Alloc(size)}, pcie.Loc{Dev: phi, Off: phi.Mem.Alloc(size)}
	onEngine(func(p *sim.Proc) {
		pr = batches(p, n, nil, func(int) { fab.DMA(p, cpu.Host, src, dst, size) })
	})
	return pr
}

// --- nvme --------------------------------------------------------------------

// One coalesced command moving size bytes between flash and phi memory.
func nvmeIO(n int, write bool, size int64) (pr probe) {
	const disk = 64 << 20
	fab := pcie.New(16 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	ssd := nvme.New(fab, "nvme0", 0, disk)
	target := pcie.Loc{Dev: phi, Off: phi.Mem.Alloc(size)}
	onEngine(func(p *sim.Proc) {
		pr = batches(p, n, nil, func(i int) {
			off := int64(i) * 7919 % (disk / size) * size
			if write {
				must(ssd.WriteAt(p, off, size, target, true))
			} else {
				must(ssd.ReadAt(p, off, size, target, true))
			}
		})
	})
	return pr
}

// --- fs (solrosfs) -----------------------------------------------------------

// onFS runs fn on a freshly formatted solrosfs over an NVMe device, with a
// file /f created and a phi on the fabric as the peer of direct transfers.
func onFS(fn func(p *sim.Proc, fsys *fs.FS, f *fs.File, peer pcie.Loc)) {
	fab := pcie.New(256 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	ssd := nvme.New(fab, "nvme0", 0, 96<<20)
	must(fs.Mkfs(ssd.Image(), 0))
	onEngine(func(p *sim.Proc) {
		fsys, err := fs.Mount(p, fab, block.NVMe{Dev: ssd})
		must(err)
		f, err := fsys.Create(p, "/f")
		must(err)
		fn(p, fsys, f, pcie.Loc{Dev: phi, Off: phi.Mem.Alloc(64 << 10)})
	})
}

// File.ReadTo of 64 KB at random offsets of a 32 MB file: extent mapping and
// one NVMe command straight into phi memory.
func fsRead64K(n int) (pr probe) {
	const size, bs = 32 << 20, 64 << 10
	onFS(func(p *sim.Proc, _ *fs.FS, f *fs.File, peer pcie.Loc) {
		must(f.Truncate(p, size))
		pr = batches(p, n, nil, func(i int) {
			must(f.ReadTo(p, int64(i)*7919%(size/bs)*bs, bs, peer, true))
		})
	})
	return pr
}

// AllocRange and WriteFrom of 64 KB at the end of the file: block
// allocation, then one NVMe command from phi memory.
func fsAppend64K(n int) (pr probe) {
	const bs = 64 << 10
	onFS(func(p *sim.Proc, _ *fs.FS, f *fs.File, peer pcie.Loc) {
		pr = batches(p, n, func() { must(f.Truncate(p, 0)) }, func(i int) {
			must(f.AllocRange(p, int64(i)*bs, bs))
			must(f.WriteFrom(p, int64(i)*bs, bs, peer, true))
		})
	})
	return pr
}

// File.Write of 256 bytes at the end of the file: the read-modify-write of a
// partial block that a KV log append pays.
func fsAppend256B(n int) (pr probe) {
	rec := make([]byte, 256)
	onFS(func(p *sim.Proc, _ *fs.FS, f *fs.File, _ pcie.Loc) {
		pr = batches(p, n, func() { must(f.Truncate(p, 0)) }, func(i int) {
			_, err := f.Write(p, int64(i)*256, rec)
			must(err)
		})
	})
	return pr
}

func fsCreateUnlink(n int) (pr probe) {
	onFS(func(p *sim.Proc, fsys *fs.FS, _ *fs.File, _ pcie.Loc) {
		pr = batches(p, n, nil, func(int) {
			_, err := fsys.Create(p, "/g")
			must(err)
			must(fsys.Unlink(p, "/g"))
		})
	})
	return pr
}

// Sync after 16 appends that dirtied the inode and the bitmap; only the Sync
// is timed.
func fsSync(n int) (pr probe) {
	const bs = 64 << 10
	onFS(func(p *sim.Proc, fsys *fs.FS, f *fs.File, _ pcie.Loc) {
		var ps []probe
		for b := 0; b < harnessBatches; b++ {
			must(f.Truncate(p, 0))
			var wall time.Duration
			var virt sim.Time
			for i := 0; i < n; i++ {
				for k := 0; k < 16; k++ {
					must(f.AllocRange(p, int64(i*16+k)*bs, bs))
				}
				t0, s0 := time.Now(), p.Now()
				must(fsys.Sync(p))
				wall += time.Since(t0)
				virt += p.Now() - s0
			}
			ps = append(ps, probe{wallNs: float64(wall.Nanoseconds()) / float64(n), simNs: float64(virt) / float64(n)})
		}
		pr = medianProbe(ps)
	})
	return pr
}

// --- netstack ----------------------------------------------------------------

// A 64-byte ping-pong between two host-class stacks on one network.
func netstackPingPong(n int) (pr probe) {
	const port = 80
	nw := netstack.NewNetwork(pcie.New(16 << 20))
	client, server := nw.NewStack("client", cpu.Host, nil), nw.NewStack("server", cpu.Host, nil)
	e := sim.NewEngine()
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, err := server.Listen(port)
		must(err)
		c, _ := l.Accept(p)
		s := c.Side(server)
		for {
			msg, err := s.RecvFull(p, 64)
			if err != nil || len(msg) < 64 { // closed, or end of stream
				return
			}
			s.Send(p, msg)
		}
	})
	e.Spawn("harness", sim.Microsecond, func(p *sim.Proc) {
		c, err := client.Dial(p, server, port)
		must(err)
		s := c.Side(client)
		msg := make([]byte, 64)
		pr = batches(p, n, nil, func(int) {
			s.Send(p, msg)
			_, err := s.RecvFull(p, 64)
			must(err)
		})
		s.Close(p)
	})
	e.MustRun()
	return pr
}

// --- apps/kvstore ------------------------------------------------------------

// Direct Shard calls, no network. A hit re-reads a value whose page is in
// the shared cache; a miss reads a key straight after its PUT invalidated
// the page (only the GET is timed); a put appends a 256-byte value.
func kvShard(n int, what string) (pr probe) {
	const keys = 512
	onMachine(false, func(p *sim.Proc, m *core.Machine) {
		sh := kvstore.NewShard(m, 0, kvstore.Options{})
		must(sh.Open(p))
		val := make([]byte, kvValBytes)
		name := make([]string, keys)
		for k := range name {
			name[k] = workload.KeyName(0, k)
			must(sh.Put(p, name[k], val))
		}
		get := func(i int) {
			if _, found, err := sh.Get(p, name[i%keys]); err != nil || !found {
				panic(fmt.Sprint("kvstore harness get: ", found, err))
			}
		}
		switch what {
		case "get_hit":
			for k := range name {
				get(k) // warm
			}
			pr = batches(p, n, nil, get)
		case "put":
			pr = batches(p, n, nil, func(i int) { must(sh.Put(p, name[i%keys], val)) })
		case "get_miss":
			var virt sim.Time
			for i := 0; i < n; i++ {
				must(sh.Put(p, name[i%keys], val))
				s0 := p.Now()
				get(i)
				virt += p.Now() - s0
			}
			pr = probe{simNs: float64(virt) / float64(n)}
		}
		must(sh.Close(p))
	})
	return pr
}

// --- workload generator ------------------------------------------------------

// Drawing n ops and n arrival gaps, as the serving workloads do; per op.
func workloadGen(n int) probe {
	pr := batches(nil, 1, nil, func(int) {
		workload.NewMultiGenerator(1, kvTenants).Ops(n)
		workload.Arrivals(2, kvServeRate, n)
	})
	pr.wallNs /= float64(n)
	return pr
}

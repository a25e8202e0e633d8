package bench

import (
	"runtime"
	"sync"
	"time"

	"solros/internal/core"
	"solros/internal/ninep"
	"solros/internal/sim"
)

// Zero-alloc hot-path experiment: heap traffic on the delegated read path,
// measured with runtime.MemStats around a steady-state (cache-resident)
// read loop while every proc of the machine runs interleaved inside the
// window. The pooled RPC path is the machine's only path, so what the
// sweep reports is the default configuration's heap cost per read.

var hotSizes = []int64{4 << 10, 64 << 10, 1 << 20, 4 << 20}

// hotFileBytes fits the default shared cache, so after one cold pass every
// read is a pure RPC + cache-hit push: exactly the path the pools target.
const hotFileBytes = 4 << 20

// allocSweep measures the sweep for EXPERIMENTS.md: virtual-time
// throughput, allocations per read, and bytes allocated per read.
func allocSweep() []Row {
	var rows []Row
	ws := make([]allocWindow, len(hotSizes))
	for i, bs := range hotSizes {
		ws[i] = hotPoint(bs)
	}
	for i, bs := range hotSizes {
		rows = append(rows, row("hotpath", "tput", sizeLabel(bs), ws[i].gbs, "GB/s"))
	}
	for i, bs := range hotSizes {
		rows = append(rows, row("hotpath", "allocs", sizeLabel(bs), ws[i].allocsPerRead(), "allocs/read"))
	}
	for i, bs := range hotSizes {
		rows = append(rows, row("hotpath", "bytes", sizeLabel(bs), ws[i].bytesPerRead(), "B/read"))
	}
	return rows
}

// allocWindow is one measured steady-state read loop: how many reads it
// made, their virtual-time throughput, and the heap traffic of the whole
// machine meanwhile. The MemStats deltas stay integers so that gates can
// compare them against an absolute slack — a stray background malloc is
// one count, while a real per-read allocation costs at least reads.
type allocWindow struct {
	reads          int64
	gbs            float64
	mallocs, bytes uint64
}

func (w allocWindow) allocsPerRead() float64 { return float64(w.mallocs) / float64(w.reads) }
func (w allocWindow) bytesPerRead() float64  { return float64(w.bytes) / float64(w.reads) }

// hotPoint runs one sweep cell: steady-state bs-sized delegated reads of a
// cache-resident file.
func hotPoint(bs int64) allocWindow {
	return readWindow(core.Config{
		DiskBytes:    16 << 20,
		PhiMemBytes:  bs + (64 << 20),
		ProxyWorkers: 8,
	}, hotFileBytes, bs, 5, 16)
}

// hotPipe measures the pipelined-read benchmark's heap traffic: warm
// (cache-resident) 2 MB delegated reads split into windowed chunk RPCs
// with batched ring drains — the configuration BenchmarkPipelinedRead
// exercises, steady-state so the per-RPC churn dominates.
func hotPipe() allocWindow {
	const bs = 2 << 20
	return readWindow(core.Config{
		DiskBytes:    pipeDiskBytes,
		CacheBytes:   pipeFileBytes + (8 << 20), // whole file stays resident
		PhiMemBytes:  bs + (64 << 20),
		ProxyWorkers: 8,
		Pipeline:     true,
		BatchRecv:    true,
		Overlap:      true,
	}, pipeFileBytes, bs, 3, 8)
}

// readWindow reads a fileBytes-long buffered file in bs-sized delegated
// reads: warm passes first (the cold one fills the cache, the rest warm
// every pool and lazily-grown map), then passes measured ones.
func readWindow(cfg core.Config, fileBytes, bs int64, warm, passes int) allocWindow {
	var w allocWindow
	m := core.NewMachine(cfg)
	m.MustRun(func(p *sim.Proc, mm *core.Machine) {
		phi := mm.Phis[0]
		fd, err := phi.FS.Open(p, "/hot", ninep.OCreate|ninep.OBuffer)
		if err != nil {
			panic(err)
		}
		f, err := mm.FS.Open(p, "/hot")
		if err != nil {
			panic(err)
		}
		if err := f.Truncate(p, fileBytes); err != nil {
			panic(err)
		}
		buf := phi.FS.AllocBuffer(bs)
		readAll := func() {
			for off := int64(0); off+bs <= fileBytes; off += bs {
				if _, err := phi.FS.Read(p, fd, off, buf, bs); err != nil {
					panic(err)
				}
			}
		}
		for i := 0; i < warm; i++ {
			readAll()
		}
		var before, after runtime.MemStats
		start := p.Now()
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			readAll()
		}
		runtime.ReadMemStats(&after)
		w = allocWindow{
			reads:   int64(passes) * (fileBytes / bs),
			gbs:     gbs(int64(passes)*fileBytes, (p.Now() - start).Seconds()),
			mallocs: after.Mallocs - before.Mallocs,
			bytes:   after.TotalAlloc - before.TotalAlloc,
		}
	})
	return w
}

// WallPipelinedRead is the wall-clock parallel backend (ROADMAP item 2):
// `workers` independent machines each run the cold pipelined-read workload
// on a real goroutine, and the result is aggregate wall-clock throughput —
// how fast this host actually simulates the workload on real cores. Every
// machine's virtual-time result is untouched (each sim is still
// deterministic and single-threaded internally); only the harness goes
// parallel. Non-deterministic by construction, so it is recorded as its
// own BENCH series and never gated by benchdiff.
func WallPipelinedRead(workers int) float64 {
	const bs = 2 << 20
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := core.NewMachine(core.Config{
				DiskBytes:    pipeDiskBytes,
				PhiMemBytes:  bs + (64 << 20),
				ProxyWorkers: 8,
				Pipeline:     true,
				BatchRecv:    true,
				Overlap:      true,
			})
			m.MustRun(func(p *sim.Proc, mm *core.Machine) {
				phi := mm.Phis[0]
				fd, err := phi.FS.Open(p, "/pipe", ninep.OCreate|ninep.OBuffer)
				if err != nil {
					panic(err)
				}
				f, err := mm.FS.Open(p, "/pipe")
				if err != nil {
					panic(err)
				}
				if err := f.Truncate(p, pipeFileBytes); err != nil {
					panic(err)
				}
				buf := phi.FS.AllocBuffer(bs)
				for off := int64(0); off+bs <= pipeFileBytes; off += bs {
					if _, err := phi.FS.Read(p, fd, off, buf, bs); err != nil {
						panic(err)
					}
				}
			})
		}()
	}
	wg.Wait()
	return gbs(int64(workers)*pipeFileBytes, time.Since(start).Seconds())
}

// HotpathSchema versions the BENCH_hotpath.json format.
const HotpathSchema = "solros-bench-hotpath/v1"

// HotpathBenchmarks runs the hot-path benchmark points for
// BENCH_hotpath.json: pipelined-read throughput and heap traffic, and
// (when parallel > 0) the wall-clock parallel series.
func HotpathBenchmarks(parallel int) CoreBench {
	w := hotPipe()
	points := []CorePoint{
		{Name: "pipelined_read_2mb_gbs", Value: w.gbs, Unit: "GB/s", HigherIsBetter: true},
		{Name: "pipelined_read_2mb_allocs", Value: w.allocsPerRead(), Unit: "allocs/read", HigherIsBetter: false},
		{Name: "pipelined_read_2mb_bytes", Value: w.bytesPerRead(), Unit: "B/read", HigherIsBetter: false},
	}
	if parallel > 0 {
		points = append(points,
			CorePoint{Name: "wall_pipelined_read_2mb", Value: WallPipelinedRead(parallel), Unit: "GB/s-wall", HigherIsBetter: true})
	}
	return CoreBench{Schema: HotpathSchema, Points: points}
}

package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// These tests lock in the *shapes* the reproduction must preserve: who
// wins, by roughly what factor, where crossovers fall. They run the
// cheaper experiments end to end.

func valueOf(t *testing.T, rows []Row, series, x string) float64 {
	t.Helper()
	for _, r := range rows {
		if r.Series == series && r.X == x {
			return r.Value
		}
	}
	t.Fatalf("no row for series=%q x=%q", series, x)
	return 0
}

func TestLookupAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if _, desc, ok := Lookup(id); !ok || desc == "" {
			t.Fatalf("experiment %q not resolvable", id)
		}
	}
	if _, _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id resolved")
	}
}

func TestFormatGroupsBySeries(t *testing.T) {
	rows := []Row{
		row("f", "a", "1", 1, "u"),
		row("f", "a", "2", 2, "u"),
		row("f", "b", "1", 3, "u"),
	}
	out := Format(rows)
	if strings.Count(out, "# f — a") != 1 || strings.Count(out, "# f — b") != 1 {
		t.Fatalf("bad grouping:\n%s", out)
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4()
	// DMA beats memcpy at 8MB; memcpy beats DMA at 64B; host-initiated
	// beats phi-initiated.
	if valueOf(t, rows, "phi->host/dma-host-init", "8MB") <= valueOf(t, rows, "phi->host/memcpy-host", "8MB") {
		t.Error("8MB: DMA should beat memcpy")
	}
	if valueOf(t, rows, "phi->host/memcpy-host", "64B") <= valueOf(t, rows, "phi->host/dma-host-init", "64B") {
		t.Error("64B: memcpy should beat DMA")
	}
	if valueOf(t, rows, "phi->host/dma-host-init", "8MB") <= valueOf(t, rows, "phi->host/dma-phi-init", "8MB") {
		t.Error("host-initiated DMA should beat phi-initiated")
	}
}

func TestFig1bShape(t *testing.T) {
	rows := Fig1b()
	host := valueOf(t, rows, "host", "p99")
	sol := valueOf(t, rows, "phi-solros", "p99")
	phi := valueOf(t, rows, "phi-linux", "p99")
	if !(host < sol && sol < phi) {
		t.Fatalf("p99 ordering wrong: host=%.1f solros=%.1f phi=%.1f", host, sol, phi)
	}
	if phi < 4*sol {
		t.Fatalf("phi-linux p99 (%.1f us) should be >=4x solros (%.1f us); paper ~7x", phi, sol)
	}
}

func TestFig13Shape(t *testing.T) {
	rows := Fig13()
	vTotal := valueOf(t, rows, "phi-virtio", "total")
	sTotal := valueOf(t, rows, "phi-solros", "total")
	if vTotal < 5*sTotal {
		t.Fatalf("512KB read: virtio (%.3f ms) should be >=5x solros (%.3f ms); paper ~14x", vTotal, sTotal)
	}
	vCopy := valueOf(t, rows, "phi-virtio", "block/transport")
	sCopy := valueOf(t, rows, "phi-solros", "proxy/transport")
	if vCopy < 20*sCopy {
		t.Fatalf("virtio CPU copy (%.3f ms) should dwarf solros transport (%.3f ms); paper 171x", vCopy, sCopy)
	}
	// Stub vs full FS (Figure 13a's 5x claim, our model: 30us vs 8us).
	vFS := valueOf(t, rows, "phi-virtio", "file-system")
	sFS := valueOf(t, rows, "phi-solros", "fs-stub")
	if vFS < 3*sFS {
		t.Fatalf("full FS on Phi (%.3f) should be >=3x the stub (%.3f); paper 5x", vFS, sFS)
	}
}

func TestFig16LinearScaling(t *testing.T) {
	rows := Fig16()
	one := valueOf(t, rows, "round-robin", "1")
	four := valueOf(t, rows, "round-robin", "4")
	if four < 3*one {
		t.Fatalf("4 phis (%.0f) should be >=3x 1 phi (%.0f)", four, one)
	}
}

func TestFig18SolrosWins(t *testing.T) {
	rows := Fig18()
	sol := valueOf(t, rows, "phi-solros", "search")
	phi := valueOf(t, rows, "phi-linux", "search")
	ratio := sol / phi
	if ratio < 1.4 || ratio > 4 {
		t.Fatalf("image search solros/phi-linux = %.2f, want ~2 (paper: 2x)", ratio)
	}
}

func TestAblationDirections(t *testing.T) {
	rows := Ablations()
	if valueOf(t, rows, "nvme-coalescing", "on") <= valueOf(t, rows, "nvme-coalescing", "off") {
		t.Error("coalescing on should beat off")
	}
	if valueOf(t, rows, "nvme-coalescing", "off-irq/op") <= valueOf(t, rows, "nvme-coalescing", "on-irq/op") {
		t.Error("coalescing should reduce interrupts per op")
	}
	if valueOf(t, rows, "ring-master", "at-phi(sender)") <= valueOf(t, rows, "ring-master", "at-host") {
		t.Error("master at the co-processor should win for RPC streams")
	}
	if valueOf(t, rows, "combine-batch", "64") <= valueOf(t, rows, "combine-batch", "1") {
		t.Error("larger combining batches should win")
	}
	if valueOf(t, rows, "shared-cache", "on") <= valueOf(t, rows, "shared-cache", "off") {
		t.Error("shared cache should speed up the second co-processor's reread")
	}
}

func TestPipelineShape(t *testing.T) {
	rows := Pipeline()
	// ISSUE 2 acceptance: >=1.5x virtual-time throughput for >=512KB
	// delegated buffered reads with pipelining on vs off, at every size.
	for _, x := range []string{"512KB", "1MB", "2MB", "4MB"} {
		sync := valueOf(t, rows, "sync", x)
		pipe := valueOf(t, rows, "pipelined", x)
		if pipe < 1.5*sync {
			t.Errorf("%s: pipelined (%.3f GB/s) should be >=1.5x sync (%.3f GB/s)", x, pipe, sync)
		}
		// Each mechanism alone should not regress the serial path.
		for _, s := range []string{"+window", "+batch", "+overlap"} {
			if v := valueOf(t, rows, s, x); v < 0.95*sync {
				t.Errorf("%s at %s (%.3f GB/s) regresses sync (%.3f GB/s)", s, x, v, sync)
			}
		}
	}
	// The overlapped NVMe leg alone should already beat serial fills.
	if ov, sync := valueOf(t, rows, "+overlap", "2MB"), valueOf(t, rows, "sync", "2MB"); ov < 1.5*sync {
		t.Errorf("overlap alone (%.3f GB/s) should be >=1.5x sync (%.3f GB/s) at 2MB", ov, sync)
	}
}

func TestChaosShape(t *testing.T) {
	// The quick chaos run must show every fault class recovering: results
	// byte-identical to the fault-free run, at least one recovery event,
	// and a deterministic repeat.
	defer func(q bool) { Quick = q }(Quick)
	Quick = true
	rows := Chaos()
	for _, series := range []string{"nvme-errors", "nvme-slow", "link-degrade",
		"ring-faults", "channel-crash", "everything"} {
		if v := valueOf(t, rows, series, "identical"); v != 1 {
			t.Errorf("%s: result diverged from the fault-free run", series)
		}
		if v := valueOf(t, rows, series, "recovered"); v <= 0 {
			t.Errorf("%s: no recovery events — faults never fired", series)
		}
		if v := valueOf(t, rows, series, "deterministic"); v != 1 {
			t.Errorf("%s: same seed did not reproduce the run", series)
		}
	}
}

// TestTraceOverheadShape runs the tracing-overhead experiment, checks the
// directions (tracing costs something, but not the farm), and emits the
// machine-readable BENCH_trace.json the bench trajectory tracks.
func TestTraceOverheadShape(t *testing.T) {
	rows := TraceOverhead()
	type sizeRec struct {
		Size        string  `json:"size"`
		GBsOff      float64 `json:"gbs_tracing_off"`
		GBsOn       float64 `json:"gbs_tracing_on"`
		OverheadPct float64 `json:"overhead_pct"`
	}
	var recs []sizeRec
	for _, bs := range traceSizes {
		x := sizeLabel(bs)
		off := valueOf(t, rows, "tracing-off", x)
		on := valueOf(t, rows, "tracing-on", x)
		ovh := valueOf(t, rows, "overhead", x)
		if off <= 0 || on <= 0 {
			t.Fatalf("%s: non-positive throughput off=%.3f on=%.3f", x, off, on)
		}
		// The 16-byte trailer rides multi-KB frames; overhead must stay
		// single-digit percent or tracing is not viable to ever turn on.
		if ovh > 10 {
			t.Errorf("%s: tracing overhead %.1f%% exceeds 10%%", x, ovh)
		}
		if ovh < -10 {
			t.Errorf("%s: tracing reports implausible speedup %.1f%%", x, ovh)
		}
		recs = append(recs, sizeRec{Size: x, GBsOff: off, GBsOn: on, OverheadPct: ovh})
	}
	blob, err := json.MarshalIndent(struct {
		Experiment string    `json:"experiment"`
		Workload   string    `json:"workload"`
		Points     []sizeRec `json:"points"`
	}{Experiment: "traceov", Workload: "pipelined cold buffered read", Points: recs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_trace.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// allocSlack is how many mallocs a measured window may contain without any
// per-read allocation: runtime.MemStats is process-wide, and the runtime
// allocates now and then (a new OS thread costs a handful). allocWindows
// is how many windows a gate may measure before failing: a stray burst
// rarely lands twice, a per-read allocation lands in every window.
const allocSlack, allocWindows = 8, 3

// TestHotPathShape holds the default machine's cache-hit read to absolute
// heap budgets: a 4 KB read allocates nothing, and no read up to 4 MB
// allocates more than twice.
func TestHotPathShape(t *testing.T) {
	for _, bs := range hotSizes {
		var w allocWindow
		var budget uint64
		for try := 0; try < allocWindows; try++ {
			w = hotPoint(bs)
			budget = uint64(2 * w.reads)
			if bs == 4<<10 {
				budget = 0
			}
			if w.mallocs <= budget+allocSlack {
				break
			}
		}
		if w.mallocs > budget+allocSlack {
			t.Errorf("%s: %d mallocs in %d reads in each of %d windows, budget %d (+%d slack)",
				sizeLabel(bs), w.mallocs, w.reads, allocWindows, budget, allocSlack)
		}
		if w.gbs <= 0 {
			t.Errorf("%s: no virtual-time throughput", sizeLabel(bs))
		}
	}
}

// BenchmarkHotPathSweep is the microbench form of the sweep: one
// sub-benchmark per size reporting the cell's virtual-time throughput and
// measured heap traffic per delegated read.
func BenchmarkHotPathSweep(b *testing.B) {
	for _, bs := range hotSizes {
		b.Run(sizeLabel(bs), func(b *testing.B) {
			var w allocWindow
			for i := 0; i < b.N; i++ {
				w = hotPoint(bs)
			}
			b.ReportMetric(w.gbs, "GB/s")
			b.ReportMetric(w.allocsPerRead(), "allocs/read")
			b.ReportMetric(w.bytesPerRead(), "B/read")
		})
	}
}

func TestTable1CountsThisRepo(t *testing.T) {
	rows := Table1()
	total := valueOf(t, rows, "TOTAL", "impl")
	if total < 5000 {
		t.Fatalf("implementation LoC = %.0f, implausibly low (walker broken?)", total)
	}
	if valueOf(t, rows, "TOTAL", "test") <= 0 {
		t.Fatal("no test lines counted")
	}
}

// Benchmarks regenerating the paper's tables and figures, one per
// experiment; `go test -bench=. -benchmem` runs the full evaluation.
// Each benchmark reports a headline custom metric alongside Go's timing so
// the benchmark log itself captures the experiment's result.
package main_test

import (
	"runtime"
	"testing"

	"solros/internal/bench"
)

// runFig executes the experiment b.N times and reports metric(rows) from
// the final run under the given unit.
func runFig(b *testing.B, id string, metric func([]bench.Row) (float64, string)) {
	b.Helper()
	run, _, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rows []bench.Row
	for i := 0; i < b.N; i++ {
		rows = run()
	}
	if len(rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	if metric != nil {
		v, unit := metric(rows)
		b.ReportMetric(v, unit)
	}
}

// maxOf reports the maximum value among rows whose series contains match.
func maxOf(match string) func([]bench.Row) (float64, string) {
	return func(rows []bench.Row) (float64, string) {
		best := 0.0
		unit := ""
		for _, r := range rows {
			if contains(r.Series, match) && r.Value > best {
				best = r.Value
				unit = r.Unit
			}
		}
		return best, unit
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkFig1aFileRandomRead(b *testing.B) {
	runFig(b, "fig1a", maxOf("phi-solros"))
}

func BenchmarkFig1bTCPLatency(b *testing.B) {
	runFig(b, "fig1b", maxOf("phi-linux"))
}

func BenchmarkFig4PCIe(b *testing.B) {
	runFig(b, "fig4", maxOf("dma-host-init"))
}

func BenchmarkTable1LinesOfCode(b *testing.B) {
	runFig(b, "table1", maxOf("TOTAL"))
}

func BenchmarkFig8RingBuffer(b *testing.B) {
	runFig(b, "fig8", maxOf("solros-combining"))
}

func BenchmarkFig9LazyUpdate(b *testing.B) {
	runFig(b, "fig9", maxOf("lazy"))
}

func BenchmarkFig10AdaptiveCopy(b *testing.B) {
	runFig(b, "fig10", maxOf("adaptive"))
}

func BenchmarkFig11RandRead(b *testing.B) {
	runFig(b, "fig11", maxOf("phi-solros"))
}

func BenchmarkFig12RandWrite(b *testing.B) {
	runFig(b, "fig12", maxOf("phi-solros"))
}

func BenchmarkFig13Breakdown(b *testing.B) {
	runFig(b, "fig13", maxOf("phi-virtio"))
}

func BenchmarkFig14TCPThroughput(b *testing.B) {
	runFig(b, "fig14", maxOf("phi-solros"))
}

func BenchmarkFig15TCPTail(b *testing.B) {
	runFig(b, "fig15", maxOf("phi-linux"))
}

func BenchmarkFig16LoadBalance(b *testing.B) {
	runFig(b, "fig16", maxOf("round-robin"))
}

func BenchmarkFig17TextIndex(b *testing.B) {
	runFig(b, "fig17", maxOf("phi-solros"))
}

func BenchmarkFig18ImageSearch(b *testing.B) {
	runFig(b, "fig18", maxOf("phi-solros"))
}

func BenchmarkFig19ControlPlaneScalability(b *testing.B) {
	runFig(b, "fig19", maxOf("cache-hit"))
}

func BenchmarkAblations(b *testing.B) {
	runFig(b, "ablate", maxOf("nvme-coalescing"))
}

func BenchmarkPipelinedRead(b *testing.B) {
	runFig(b, "pipeline", maxOf("pipelined"))
}

// BenchmarkPipelinedReadWall is the wall-clock parallel backend: GOMAXPROCS
// machines each run the pipelined-read workload on a real goroutine and the
// reported metric is aggregate wall-clock throughput. Virtual-time results
// are untouched (each sim stays deterministic); only the harness fans out.
func BenchmarkPipelinedReadWall(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	var wall float64
	for i := 0; i < b.N; i++ {
		wall = bench.WallPipelinedRead(workers)
	}
	b.ReportMetric(wall, "GB/s-wall")
	b.ReportMetric(float64(workers), "workers")
}

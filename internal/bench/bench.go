// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each FigXX function runs the corresponding experiment
// and returns rows of (series, x, value); cmd/solros-bench prints them and
// bench_test.go wraps them in testing.B benchmarks.
//
// Absolute numbers come from the calibrated hardware model
// (internal/model); what must match the paper is the *shape*: who wins,
// by roughly what factor, and where the crossovers fall. EXPERIMENTS.md
// records paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one data point of a figure: a named series, an x coordinate
// (kept as a label so block sizes and thread counts print naturally), and
// a value with its unit.
type Row struct {
	Fig    string
	Series string
	X      string
	Value  float64
	Unit   string
}

func row(fig, series, x string, v float64, unit string) Row {
	return Row{Fig: fig, Series: series, X: x, Value: v, Unit: unit}
}

// Format renders rows as an aligned table, grouped by series.
func Format(rows []Row) string {
	var b strings.Builder
	var lastSeries string
	for _, r := range rows {
		if r.Series != lastSeries {
			if lastSeries != "" {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "# %s — %s\n", r.Fig, r.Series)
			lastSeries = r.Series
		}
		fmt.Fprintf(&b, "%-10s %14.3f %s\n", r.X, r.Value, r.Unit)
	}
	return b.String()
}

// sizeLabel formats byte sizes the way the paper's axes do.
func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// gbs converts bytes over virtual seconds to GB/s.
func gbs(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e9
}

// mbs converts to MB/s.
func mbs(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e6
}

// Experiments maps experiment ids (figure/table names) to their runners,
// in the order the paper presents them.
var Experiments = []struct {
	ID   string
	Desc string
	Run  func() []Row
}{
	{"fig1a", "file random read throughput across architectures", Fig1a},
	{"fig1b", "TCP 64B latency CDF across architectures", Fig1b},
	{"fig4", "PCIe bandwidth: DMA vs load/store, host- vs Phi-initiated", Fig4},
	{"table1", "lines of code per module (this reproduction)", Table1},
	{"fig8", "ring buffer scalability: combining vs two-lock (real concurrency)", Fig8},
	{"fig9", "ring buffer over PCIe: lazy vs eager control variables", Fig9},
	{"fig10", "adaptive copy: memcpy vs DMA vs adaptive across sizes", Fig10},
	{"fig11", "NVMe random read throughput matrix", Fig11},
	{"fig12", "NVMe random write throughput matrix", Fig12},
	{"fig13", "latency breakdown: file system and network", Fig13},
	{"fig14", "TCP throughput vs message size", Fig14},
	{"fig15", "TCP 64B latency percentiles", Fig15},
	{"fig16", "shared listening socket scaling with co-processor count", Fig16},
	{"fig17", "application: text indexing", Fig17},
	{"fig18", "application: image search", Fig18},
	{"fig19", "control-plane OS scalability", Fig19},
	{"ablate", "ablations of Solros design decisions", Ablations},
	{"pipeline", "pipelined delegated I/O: sync vs windowed/batched/overlapped reads", Pipeline},
	{"hotpath", "zero-alloc delegated hot path: heap traffic per cache-hit read", allocSweep},
	{"chaos", "fault injection: recovery correctness and determinism per fault class", Chaos},
	{"traceov", "overhead of end-to-end causal tracing on the pipelined read", TraceOverhead},
	{"serve", "KV store under open-loop Zipfian YCSB load: tput and tail latency vs offered rate", Serve},
	{"scale", "control-plane scale-out: aggregate tput and p99 vs co-processor count, sharded vs unsharded proxies", Scale},
}

// Lookup finds an experiment by id.
func Lookup(id string) (func() []Row, string, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run, e.Desc, true
		}
	}
	return nil, "", false
}

// IDs lists experiment ids in presentation order.
func IDs() []string {
	out := make([]string, 0, len(Experiments))
	for _, e := range Experiments {
		out = append(out, e.ID)
	}
	return out
}

// SeriesMax returns the max value per series, for shape assertions.
func SeriesMax(rows []Row) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Value > out[r.Series] {
			out[r.Series] = r.Value
		}
	}
	return out
}

// SortRows orders rows by (series, insertion) — stable display helper.
func SortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Series < rows[j].Series })
}

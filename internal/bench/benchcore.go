package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"solros/internal/faults"
)

// The core benchmark baseline: four scalar health numbers covering the
// main code paths — the serial buffered read, the fully pipelined read,
// throughput under NVMe fault injection, and causal-tracing overhead.
// All are deterministic functions of virtual time, so the committed
// BENCH_core.json compares exactly across machines; benchdiff flags any
// point that moved past a regression budget.

// CoreSchema versions the BENCH_core.json format.
const CoreSchema = "solros-bench-core/v1"

// CorePoint is one scalar of the baseline.
type CorePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// HigherIsBetter orients the regression check: throughput regresses
	// downward, overhead regresses upward.
	HigherIsBetter bool `json:"higher_is_better"`
}

// CoreBench is the BENCH_core.json document.
type CoreBench struct {
	Schema string      `json:"schema"`
	Points []CorePoint `json:"points"`
}

// CoreBenchmarks runs the baseline points. Sizes follow the pipeline and
// chaos experiments; the chaos point uses the nvme-errors fault class at
// the package Seed so retries are exercised deterministically.
func CoreBenchmarks() CoreBench {
	const bs = 2 << 20
	sync := pipePoint(false, false, false, bs)
	pipe := pipePoint(true, true, true, bs)

	fileBytes, chunk := int64(8<<20), int64(256<<10)
	plan := faults.Plan{Seed: Seed, NVMeReadErrRate: 0.03, NVMeWriteErrRate: 0.03}
	r := chaosRun(&plan, fileBytes, chunk, "controlplane.fsproxy.io_retries")
	// The chaos workload writes then reads the file once each.
	chaos := gbs(2*fileBytes, (r.end - r.start).Seconds())

	offGBs := tracePoint(false, 512<<10)
	onGBs := tracePoint(true, 512<<10)
	overhead := 0.0
	if offGBs > 0 {
		overhead = (offGBs - onGBs) / offGBs * 100
	}

	// Heap-traffic gate for the zero-alloc hot path: allocs/op and B/op
	// of the steady-state pipelined read. Committed in BENCH_core.json so
	// benchdiff fails loudly when pooling regresses, not just when
	// virtual time does.
	w := hotPipe()

	return CoreBench{
		Schema: CoreSchema,
		Points: []CorePoint{
			{Name: "sync_read_2mb", Value: sync, Unit: "GB/s", HigherIsBetter: true},
			{Name: "pipelined_read_2mb", Value: pipe, Unit: "GB/s", HigherIsBetter: true},
			{Name: "chaos_nvme_errors_rw", Value: chaos, Unit: "GB/s", HigherIsBetter: true},
			{Name: "trace_overhead_512kb", Value: overhead, Unit: "%", HigherIsBetter: false},
			{Name: "pipelined_read_allocs", Value: w.allocsPerRead(), Unit: "allocs/read", HigherIsBetter: false},
			{Name: "pipelined_read_bytes", Value: w.bytesPerRead(), Unit: "B/read", HigherIsBetter: false},
		},
	}
}

// WriteCoreBench writes the document as indented JSON.
func WriteCoreBench(path string, cb CoreBench) error {
	blob, err := json.MarshalIndent(cb, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadCoreBench reads and validates a BENCH_core.json document.
func LoadCoreBench(path string) (CoreBench, error) {
	return LoadBench(path, CoreSchema)
}

// LoadBench reads a benchmark document and checks it carries the expected
// schema (CoreSchema for BENCH_core.json, HotpathSchema for
// BENCH_hotpath.json — both share the point format).
func LoadBench(path, schema string) (CoreBench, error) {
	var cb CoreBench
	blob, err := os.ReadFile(path)
	if err != nil {
		return cb, err
	}
	if err := json.Unmarshal(blob, &cb); err != nil {
		return cb, fmt.Errorf("%s: %w", path, err)
	}
	if cb.Schema != schema {
		return cb, fmt.Errorf("%s: schema %q, want %q", path, cb.Schema, schema)
	}
	return cb, nil
}

// LoadBenchAny reads a benchmark document accepting any schema; callers
// (benchdiff) must check that the documents they compare agree on it.
func LoadBenchAny(path string) (CoreBench, error) {
	var cb CoreBench
	blob, err := os.ReadFile(path)
	if err != nil {
		return cb, err
	}
	if err := json.Unmarshal(blob, &cb); err != nil {
		return cb, fmt.Errorf("%s: %w", path, err)
	}
	if cb.Schema == "" {
		return cb, fmt.Errorf("%s: missing schema", path)
	}
	return cb, nil
}

// CoreDelta is one point's old-vs-new comparison.
type CoreDelta struct {
	Name     string
	Unit     string
	Old, New float64
	// WorsePct is the regression magnitude in percent, oriented by
	// HigherIsBetter: positive means the new value is worse.
	WorsePct float64
	// Regressed is set when WorsePct exceeds the allowed budget.
	Regressed bool
	// Missing is set when the point exists in only one document.
	Missing bool
}

// CompareCore diffs two baselines: every point in old is matched by name
// in new and its movement oriented by HigherIsBetter; a point moving
// worse by more than maxRegressPct percent is flagged. Points present on
// only one side are reported as Missing (and count as regressions — a
// silently dropped benchmark is how baselines rot).
func CompareCore(old, new CoreBench, maxRegressPct float64) []CoreDelta {
	newByName := make(map[string]CorePoint, len(new.Points))
	for _, p := range new.Points {
		newByName[p.Name] = p
	}
	var out []CoreDelta
	seen := make(map[string]bool, len(old.Points))
	for _, op := range old.Points {
		seen[op.Name] = true
		np, ok := newByName[op.Name]
		if !ok {
			out = append(out, CoreDelta{Name: op.Name, Unit: op.Unit, Old: op.Value, Missing: true, Regressed: true})
			continue
		}
		d := CoreDelta{Name: op.Name, Unit: op.Unit, Old: op.Value, New: np.Value}
		switch {
		case op.Value != 0 && op.HigherIsBetter:
			d.WorsePct = (op.Value - np.Value) / op.Value * 100
		case op.Value != 0:
			d.WorsePct = (np.Value - op.Value) / op.Value * 100
		case np.Value != 0 && !op.HigherIsBetter:
			// A lower-is-better point rising off zero is pure regression.
			d.WorsePct = 100
		}
		d.Regressed = d.WorsePct > maxRegressPct
		out = append(out, d)
	}
	for _, np := range new.Points {
		if !seen[np.Name] {
			out = append(out, CoreDelta{Name: np.Name, Unit: np.Unit, New: np.Value, Missing: true})
		}
	}
	return out
}

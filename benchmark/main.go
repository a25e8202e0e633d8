// Command benchmark is the repository's benchmark: five workloads on a
// default-configured Solros machine, measured on two clocks — the virtual
// time of the modelled machine and the wall time of the Go program — as
// end-to-end metrics (tracing off) and per-layer metrics (a separate traced
// run). BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory explains them.
//
//	go run -C benchmark solros/benchmark -workload fs_hot -seed 1
//	go run -C benchmark solros/benchmark -all
//	go run -C benchmark solros/benchmark -layers
//	go run -C benchmark solros/benchmark compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// defaultSeed is the seed results are recorded with; heldOutSeed is kept
// for checking a claim on inputs not used while a change was written.
const (
	defaultSeed = 1
	heldOutSeed = 20180423
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", defaultSeed, "seed of the input generators")
		seconds = flag.Float64("seconds", 12, "wall seconds of timed repetitions (at least "+fmt.Sprint(segments+1)+" run)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced repetition")
		quick   = flag.Bool("quick", false, "smoke-test size: ~20x fewer ops, 2 repetitions")
		all     = flag.Bool("all", false, "run every workload, each in its own process, with -trace 0 then -trace 1")
		layers  = flag.Bool("layers", false, "run only the per-layer harnesses")
		out     = flag.String("out", "out", "directory for result and trace files")
		commit  = flag.String("commit", "", "commit hash to record in the result files")
	)
	flag.Parse()

	// The sim kernel runs one proc at a time, so more Ps only add
	// cross-thread wake-ups and scheduler noise.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	switch {
	case *all:
		os.Exit(runAll(*seed, *seconds, *quick, *out, *commit))
	case *layers:
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		runLayers(&res, *quick)
		res.write(os.Stdout, harnessMetrics)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
			os.Exit(2)
		}
		o := options{seed: *seed, seconds: *seconds, quick: *quick, out: *out}
		var res result
		file, defs := w.name+".json", endToEndMetrics
		if *trace == 0 {
			res = runEndToEnd(w, o)
		} else {
			res = runPerLayer(w, o)
			runLayers(&res, o.quick)
			file, defs = w.name+".layers.json", perLayerMetrics
		}
		if *commit != "" {
			res.Host["commit"] = *commit
		}
		if err := res.save(filepath.Join(*out, file)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		res.write(os.Stdout, defs)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// runAll runs every workload in a sub-process of its own, so that peak RSS
// is per workload, and returns the worst exit code.
func runAll(seed int64, seconds float64, quick bool, out, commit string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", out, "-commit", commit,
			}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// metric is one reported value. The quartiles and sample count are kept in
// the saved result files for compare; the contract line carries value and
// unit only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is what one invocation reports.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Late      int               `json:"late"`
	SimDigest string            `json:"sim_digest,omitempty"`
	InputSum  string            `json:"input_checksum,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	Host      map[string]string `json:"host,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64) {
	r.Metrics[name] = metric{Value: value, Unit: units[name]}
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// write prints one line per metric by name with its unit, then, as the last
// line, the JSON object the benchmark contract asks for.
func (r *result) write(out io.Writer, defs []metricDef) {
	fmt.Fprintf(out, "workload %s seed %d: attempted %d failed %d late %d correct %v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Late, r.Correct)
	if r.SimDigest != "" {
		fmt.Fprintf(out, "sim_digest %s input_checksum %s\n", r.SimDigest, r.InputSum)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "PROBLEM %s\n", p)
	}
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	lines := make(map[string]line, len(defs))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		lines[d.Name] = line{m.Value, d.Unit}
		switch {
		case m.Q3 != 0:
			fmt.Fprintf(out, "%-34s %14.4f %-10s q1 %.4f q3 %.4f reps %d\n", d.Name, m.Value, d.Unit, m.Q1, m.Q3, m.N)
		case m.N != 0:
			fmt.Fprintf(out, "%-34s %14.4f %-10s samples %d\n", d.Name, m.Value, d.Unit, m.N)
		default:
			fmt.Fprintf(out, "%-34s %14.4f %-10s\n", d.Name, m.Value, d.Unit)
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, lines})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(last))
}

// save writes the full result, quartiles included, for compare and for the
// committed baseline.
func (r *result) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

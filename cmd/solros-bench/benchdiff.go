package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"solros/internal/bench"
)

// runBenchServe runs the gated serving points and writes BENCH_serve.json.
func runBenchServe(args []string) {
	fs := flag.NewFlagSet("benchserve", flag.ExitOnError)
	out := fs.String("o", "BENCH_serve.json", "output path for the serving baseline document")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: solros-bench benchserve [-o BENCH_serve.json]")
		fmt.Fprintln(os.Stderr, "\nRuns the KV serving baseline (throughput and p99 below and at")
		fmt.Fprintln(os.Stderr, "saturation, cache on and off) and writes the document benchdiff")
		fmt.Fprintln(os.Stderr, "compares against.")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	sb := bench.ServeBenchmarks()
	for _, p := range sb.Points {
		fmt.Printf("%-24s %10.3f %s\n", p.Name, p.Value, p.Unit)
	}
	if err := bench.WriteCoreBench(*out, sb); err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "solros-bench: wrote %s\n", *out)
}

// runBenchScale runs the gated control-plane scale-out points and writes
// BENCH_scale.json.
func runBenchScale(args []string) {
	fs := flag.NewFlagSet("benchscale", flag.ExitOnError)
	out := fs.String("o", "BENCH_scale.json", "output path for the scale-out baseline document")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: solros-bench benchscale [-o BENCH_scale.json]")
		fmt.Fprintln(os.Stderr, "\nRuns the control-plane scale-out points (sharded throughput and")
		fmt.Fprintln(os.Stderr, "speedup at 16 co-processors, saturation-knee positions for the")
		fmt.Fprintln(os.Stderr, "sharded and single-shard series, KV connection churn) and writes")
		fmt.Fprintln(os.Stderr, "the document benchdiff compares against.")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	sb := bench.ScaleBenchmarks()
	for _, p := range sb.Points {
		fmt.Printf("%-26s %10.3f %s\n", p.Name, p.Value, p.Unit)
	}
	if err := bench.WriteCoreBench(*out, sb); err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "solros-bench: wrote %s\n", *out)
}

// runBenchCore runs the core benchmark baseline and writes BENCH_core.json.
func runBenchCore(args []string) {
	fs := flag.NewFlagSet("benchcore", flag.ExitOnError)
	out := fs.String("o", "BENCH_core.json", "output path for the baseline document")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: solros-bench benchcore [-o BENCH_core.json]")
		fmt.Fprintln(os.Stderr, "\nRuns the four core benchmark points (sync read, pipelined read,")
		fmt.Fprintln(os.Stderr, "chaos under NVMe errors, tracing overhead) and writes the baseline")
		fmt.Fprintln(os.Stderr, "document benchdiff compares against.")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	cb := bench.CoreBenchmarks()
	for _, p := range cb.Points {
		fmt.Printf("%-24s %10.3f %s\n", p.Name, p.Value, p.Unit)
	}
	if err := bench.WriteCoreBench(*out, cb); err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "solros-bench: wrote %s\n", *out)
}

// runBenchHotpath runs the zero-alloc hot-path benchmark points and writes
// BENCH_hotpath.json. -parallel arms the wall-clock backend: that many
// machines run the pipelined-read workload concurrently on real goroutines
// and the aggregate wall throughput is recorded as its own series (the
// sim-clock points are untouched and stay deterministic).
func runBenchHotpath(args []string) {
	fs := flag.NewFlagSet("benchhotpath", flag.ExitOnError)
	out := fs.String("o", "BENCH_hotpath.json", "output path for the hot-path document")
	parallel := fs.Int("parallel", 0, "wall-clock backend: run N machines on real goroutines and record aggregate wall GB/s (0 = skip)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: solros-bench benchhotpath [-o BENCH_hotpath.json] [-parallel N]")
		fmt.Fprintln(os.Stderr, "\nMeasures the pipelined delegated read's virtual-time throughput")
		fmt.Fprintln(os.Stderr, "and heap traffic (allocs/op, B/op).")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	hb := bench.HotpathBenchmarks(*parallel)
	for _, p := range hb.Points {
		fmt.Printf("%-36s %14.3f %s\n", p.Name, p.Value, p.Unit)
	}
	if err := bench.WriteCoreBench(*out, hb); err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "solros-bench: wrote %s\n", *out)
}

// runBenchDiff compares two BENCH_core.json documents and flags points
// that regressed past the budget.
func runBenchDiff(args []string) {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	maxRegress := fs.String("max-regress", "5%", "largest tolerated regression per point (e.g. 5%)")
	warn := fs.Bool("warn", false, "report regressions but exit 0 (CI warn-only gate)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: solros-bench benchdiff [-max-regress 5%] [-warn] old.json new.json")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	budget, err := parsePercent(*maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(2)
	}
	oldCB, err := bench.LoadBenchAny(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(2)
	}
	newCB, err := bench.LoadBenchAny(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "solros-bench:", err)
		os.Exit(2)
	}
	if oldCB.Schema != newCB.Schema {
		fmt.Fprintf(os.Stderr, "solros-bench: schema mismatch: %s carries %q, %s carries %q\n",
			fs.Arg(0), oldCB.Schema, fs.Arg(1), newCB.Schema)
		os.Exit(2)
	}
	deltas := bench.CompareCore(oldCB, newCB, budget)
	regressed := 0
	fmt.Printf("%-24s %12s %12s %9s  %s\n", "POINT", "OLD", "NEW", "WORSE%", "VERDICT")
	for _, d := range deltas {
		verdict := "ok"
		switch {
		case d.Missing && d.Regressed:
			verdict = "MISSING (regression)"
		case d.Missing:
			verdict = "new point"
		case d.Regressed:
			verdict = fmt.Sprintf("REGRESSED (> %g%%)", budget)
		}
		if d.Regressed {
			regressed++
		}
		fmt.Printf("%-24s %12.3f %12.3f %9.2f  %s\n", d.Name, d.Old, d.New, d.WorsePct, verdict)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "solros-bench: %d point(s) regressed past %g%%\n", regressed, budget)
		if !*warn {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "solros-bench: warn-only mode, exiting 0")
	}
}

// parsePercent parses "5%" or "5" into 5.0.
func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("-max-regress: %q: want a percentage like 5%%", s)
	}
	return v, nil
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare is the local mirror of the pipeline's gate, not a replacement for
// it: side a is the parent commit, side b the change, each a file holding
// one or more saved end-to-end results (a JSON stream) or a directory of
// them, searched recursively. Runs of one workload are folded into a median
// and quartiles per metric.

// side is one commit's runs, by workload.
type side map[string][]result

func loadSide(path string) (side, error) {
	s := side{}
	add := func(file string) error {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		for {
			var r result
			if err := dec.Decode(&r); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return fmt.Errorf("%s: %w", file, err)
			}
			if _, ok := r.Metrics[endToEndMetrics[0].Name]; ok {
				s[r.Workload] = append(s[r.Workload], r)
			}
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return s, add(path)
	}
	err = filepath.WalkDir(path, func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".json") ||
			strings.HasSuffix(file, ".layers.json") || strings.HasSuffix(file, ".trace.json") {
			return err
		}
		return add(file)
	})
	return s, err
}

// fold returns the median and quartiles of a metric over runs. A single run
// brings the quartiles of its own repetitions.
func fold(runs []result, name string) (q1, med, q3 float64) {
	if len(runs) == 1 {
		m := runs[0].Metrics[name]
		if m.Q3 == 0 {
			return m.Value, m.Value, m.Value
		}
		return m.Q1, m.Value, m.Q3
	}
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	return quartiles(xs)
}

func failedShare(runs []result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <parent: file or dir> <change: file or dir>")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no end-to-end results", args[0])
	}
	var b side
	if err == nil {
		b, err = loadSide(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var names []string
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)

	bad := 0
	fmt.Printf("%-12s %-24s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "worse%", "bound%", "verdict")
	for _, w := range names {
		ra, rb := a[w], b[w]
		if len(rb) == 0 {
			fmt.Printf("%-12s missing from %s\n", w, args[1])
			bad++
			continue
		}
		for _, d := range endToEndMetrics {
			a1, am, a3 := fold(ra, d.Name)
			b1, bm, b3 := fold(rb, d.Name)
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/am, (b3-b1)/bm)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				bad++
			case spread > d.Bound:
				// The runs of one side differ by more than the bound: the
				// metric cannot be called unchanged.
				verdict = "unresolved"
			case strings.HasPrefix(d.Name, "sim_") && am != bm:
				// Virtual time is exact for a seed: any difference is real.
				verdict = "changed"
			}
			fmt.Printf("%-12s %-24s %12.4f %12.4f %+8.2f %6.1f  %s  [%.4f..%.4f] [%.4f..%.4f] runs %d/%d\n",
				w, d.Name, am, bm, 100*worse, 100*d.Bound, verdict, a1, a3, b1, b3, len(ra), len(rb))
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "MORE FAILED"
			bad++
		}
		fmt.Printf("%-12s %-24s %12.6f %12.6f %8s %6s  %s\n", w, "failed_share", fa, fb, "", "", verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

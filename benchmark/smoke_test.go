package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricJSON `json:"end_to_end"`
	PerLayer  []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON: the program's tables and BENCHMARK.json name
// the same workloads and metrics, with the same units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

// checkOutput: every metric is printed exactly once by name with its unit,
// and the last line is the contract's JSON object with exactly those metrics.
func checkOutput(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	res.write(&buf, defs)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	printed := map[string]int{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) >= 3 && units[f[0]] != "" {
			printed[f[0]]++
			if f[2] != units[f[0]] {
				t.Errorf("%s printed with unit %q, want %q", f[0], f[2], units[f[0]])
			}
		}
	}
	var last struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the contract's object: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
		t.Errorf("last line: want correct, attempted >= 1, failed 0: %s", lines[len(lines)-1])
	}
	if len(last.Metrics) != len(defs) {
		t.Errorf("last line carries %d metrics, want %d", len(last.Metrics), len(defs))
	}
	for _, d := range defs {
		if printed[d.Name] != 1 {
			t.Errorf("%s printed %d times, want once", d.Name, printed[d.Name])
		}
		if m, ok := last.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("last line: metric %s missing or with unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	for _, p := range res.Problems {
		t.Errorf("%s: %s", res.Workload, p)
	}
}

// simPart is what must repeat exactly for one seed.
func simPart(r result) [6]string {
	out := [6]string{r.SimDigest, r.InputSum}
	for i, name := range []string{"sim_goodput_kops", "sim_p50_us", "sim_p99_us", "sim_knee_kops"} {
		b, _ := json.Marshal(r.Metrics[name].Value)
		out[2+i] = string(b)
	}
	return out
}

// TestWorkloadsQuick runs every workload at -quick size, end to end twice and
// per layer once.
func TestWorkloadsQuick(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: defaultSeed, quick: true, out: t.TempDir()}
			first := runEndToEnd(w, o)
			checkOutput(t, first, endToEndMetrics)
			for _, d := range endToEndMetrics {
				if first.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			if again := runEndToEnd(w, o); simPart(again) != simPart(first) {
				t.Errorf("two runs with one seed differ in virtual time: %v, then %v", simPart(first), simPart(again))
			}
			checkOutput(t, runPerLayer(w, o), runMetrics)
			if _, err := os.Stat(o.out + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("the traced repetition left no span file: %v", err)
			}

			// Another seed must give other inputs.
			a := inputChecksum(w.prepare(defaultSeed, w.opsFor(true), 1, true))
			b := inputChecksum(w.prepare(heldOutSeed, w.opsFor(true), 1, true))
			if a == b {
				t.Errorf("seeds %d and %d generate the same inputs (checksum %016x)", defaultSeed, heldOutSeed, a)
			}
		})
	}
}

// TestLayersQuick runs the layer harnesses alone, as -layers does.
func TestLayersQuick(t *testing.T) {
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	runLayers(&res, true)
	checkOutput(t, res, harnessMetrics)
	for _, d := range harnessMetrics {
		if strings.HasSuffix(d.Name, "_wall_ns") && res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %v, want a positive wall time", d.Name, res.Metrics[d.Name].Value)
		}
	}
}

// TestCompare: a side compared with itself passes; with every lower-is-better
// metric doubled it is a regression.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	res := newResult(&workloads[0], options{seed: 1})
	res.Attempted = 10
	for _, d := range endToEndMetrics {
		res.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
	}
	if err := res.save(dir + "/a/w.json"); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEndMetrics {
		if d.Better == "lower" {
			res.Metrics[d.Name] = metric{Value: 20, Unit: d.Unit}
		}
	}
	if err := res.save(dir + "/b/w.json"); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{dir + "/a", dir + "/a"}); code != 0 {
		t.Errorf("compare of a side with itself exits %d, want 0", code)
	}
	if code := compareMain([]string{dir + "/a", dir + "/b/w.json"}); code != 1 {
		t.Errorf("compare with doubled times exits %d, want 1", code)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"solros/internal/sim"
	"solros/internal/telemetry"
)

// span is one call the benchmark made into a public API, timed on both
// clocks from outside the program. Parent is the index of the enclosing
// region span (setup, timed, teardown); spans of one op share Op.
type span struct {
	Name      string `json:"name"`
	Op        int    `json:"op"` // -1: not part of an op
	Parent    int    `json:"parent"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	WallStart int64  `json:"wall_start_ns"` // since the tracer was made
	WallEnd   int64  `json:"wall_end_ns"`
}

// tracer keeps the benchmark's own spans in memory until the run ends. A nil
// tracer records nothing, so untraced repetitions pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // index of the open region span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// mark is the start of a span on both clocks.
type mark struct {
	sim  sim.Time
	wall int64
}

func simNow(p *sim.Proc) sim.Time {
	if p == nil {
		return 0
	}
	return p.Now()
}

func (t *tracer) start(p *sim.Proc) mark {
	if t == nil {
		return mark{}
	}
	return mark{simNow(p), time.Since(t.epoch).Nanoseconds()}
}

// startAt is start for a span whose virtual beginning is already past, such
// as the wait of an op in its arrival queue.
func (t *tracer) startAt(at sim.Time) mark {
	if t == nil {
		return mark{}
	}
	return mark{at, time.Since(t.epoch).Nanoseconds()}
}

func (t *tracer) finish(p *sim.Proc, name string, op int, m mark) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: t.open,
		SimStart: int64(m.sim), SimEnd: int64(simNow(p)),
		WallStart: m.wall, WallEnd: time.Since(t.epoch).Nanoseconds(),
	})
}

// region closes the open region span and opens the next one.
func (t *tracer) region(p *sim.Proc, name string) {
	if t == nil {
		return
	}
	now, wall := int64(simNow(p)), time.Since(t.epoch).Nanoseconds()
	if t.open >= 0 {
		t.spans[t.open].SimEnd, t.spans[t.open].WallEnd = now, wall
	}
	t.open = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: -1, Parent: -1, SimStart: now, SimEnd: now, WallStart: wall, WallEnd: wall})
}

// callMeans returns the mean virtual µs per call name over the timed region.
func (t *tracer) callMeans() map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == "timed" {
			sum[s.Name] += float64(s.SimEnd-s.SimStart) / 1e3
			n[s.Name]++
		}
	}
	for name := range sum {
		sum[name] /= n[name]
	}
	return sum
}

func (t *tracer) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageMeans folds the program's own causal traces into a mean per op for
// each critical-path stage, Figure 13 style: every trace whose root began
// inside the timed region is swept by telemetry.ComputePath, whose stage
// rows sum to the root's latency. It is Sink.StageRollup with the traces
// grouped in one pass, because the rollup rescans every span per trace.
func stageMeans(sink *telemetry.Sink, from, to sim.Time, ops int) (stages map[string]float64, total float64) {
	byTrace := map[uint64][]telemetry.Span{}
	var order []uint64 // first seen first, so that the sums repeat exactly
	for _, sp := range sink.Spans() {
		if sp.Trace == 0 {
			continue
		}
		if _, seen := byTrace[sp.Trace]; !seen {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	stages = map[string]float64{}
	for _, id := range order {
		rp := telemetry.ComputePath(id, byTrace[id])
		if rp == nil || rp.Root.Begin < from || rp.Root.Begin > to {
			continue
		}
		for _, sd := range rp.Stages {
			stages[sd.Stage] += float64(sd.Dur) / 1e3 / float64(ops)
		}
		total += float64(rp.Total) / 1e3 / float64(ops)
	}
	return stages, total
}

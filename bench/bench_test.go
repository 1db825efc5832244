package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smoke runs one workload for three repetitions and returns its record.
func smoke(t *testing.T, workload string, trace bool) *record {
	t.Helper()
	rec, err := run(config{
		workload: workload, seed: 7, seconds: 0.1, reps: 3, trace: trace,
		results: t.TempDir(), setupRounds: 1,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Report.Correct || rec.Report.Failed != 0 || rec.Report.Attempted == 0 {
		t.Fatalf("%s: %d of %d checked calls failed: %v", workload, rec.Report.Failed, rec.Report.Attempted, rec.Failures)
	}
	return rec
}

// TestWorkloadsSmoke runs every workload end to end and checks that each
// emits every end-to-end metric with a usable value. -short keeps the two
// cheapest workloads.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloads() {
		if testing.Short() && def.name != "fine" && def.name != "overhead" {
			continue
		}
		t.Run(def.name, func(t *testing.T) {
			rec := smoke(t, def.name, false)
			if len(rec.Report.Metrics) != len(endToEnd) {
				t.Fatalf("emitted %d metrics, want %d", len(rec.Report.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := rec.Report.Metrics[d.name]
				if !ok || !(m.Value > 0) || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if rec.Reps != 3 {
				t.Errorf("measured %d repetitions, want 3", rec.Reps)
			}
		})
	}
}

// TestTracedPass checks that the traced pass fills every per-layer metric
// and writes a span file whose children lie inside their parents.
func TestTracedPass(t *testing.T) {
	for _, name := range []string{"fine", "overhead"} {
		t.Run(name, func(t *testing.T) {
			rec := smoke(t, name, true)
			for _, d := range perLayer {
				if m, ok := rec.Report.Metrics[d.name]; !ok || math.IsNaN(m.Value) {
					t.Errorf("%s missing from the traced pass", d.name)
				}
			}
			blob, err := os.ReadFile(rec.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(blob, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Workload != name || tf.Calls == 0 || len(tf.Spans) == 0 {
				t.Fatalf("trace file: workload %q, %d calls, %d spans", tf.Workload, tf.Calls, len(tf.Spans))
			}
			// Spans from the engine's clock are aligned with the trace
			// clock to well under this slack.
			const slack = 20_000
			for i, s := range tf.Spans {
				if s.EndNS < s.StartNS {
					t.Fatalf("span %d ends before it starts: %+v", i, s)
				}
				if s.Parent < 0 {
					continue
				}
				p := tf.Spans[s.Parent]
				if s.Run != p.Run || s.StartNS < p.StartNS-slack || s.EndNS > p.EndNS+slack {
					t.Fatalf("span %d %+v not inside its parent %+v", i, s, p)
				}
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the schema test reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark's own
// tables in step: every workload and metric the file names is emitted
// under that name, unit and direction, and the counts stay inside the
// contract.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}

	defs := workloads()
	if len(bj.Workloads) != len(defs) || len(defs) > 6 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark (at most 6)", len(bj.Workloads), len(defs))
	}
	for i, w := range bj.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	match := func(kind string, got []jsonMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark (at most %d)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %s: bound %v, the benchmark has %v (0 < bound <= 0.25)", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	for _, w := range bj.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is bad or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	match("end_to_end", bj.EndToEnd, endToEnd, 16, true)
	match("per_layer", bj.PerLayer, perLayer, 128, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the contract wants setup_s in seconds, lower is better; got %+v", endToEnd[0])
	}
}

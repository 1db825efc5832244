package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestJudge covers the three verdicts in both directions.
func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 75, 125, 90, 110, 100, 65, 135, 100}
	for _, c := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, tight, tight, verdictOK},
		{"lower metric 5% up", lower, tight, shift(tight, 1.05), verdictOK},
		{"lower metric 15% up", lower, tight, shift(tight, 1.15), verdictWorse},
		{"lower metric 15% down", lower, tight, shift(tight, 0.85), verdictOK},
		{"higher metric 15% down", higher, tight, shift(tight, 0.85), verdictWorse},
		{"higher metric 15% up", higher, tight, shift(tight, 1.15), verdictOK},
		{"noise wider than the bound", lower, wide, shift(wide, 1.02), verdictUnresolved},
		{"wide but every run better", lower, shift(wide, 3), wide, verdictOK},
		{"single runs", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if _, got := judge(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if change, _ := judge(higher, tight, shift(tight, 0.85)); change < 0.14 || change > 0.16 {
		t.Errorf("change = %v, want about +0.15 (worse) with the base median as base", change)
	}
}

// TestCompareFiles writes two result sets and checks the table and the
// exit condition.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, factor float64, failed int) string {
		path := filepath.Join(dir, file)
		for _, def := range workloads() {
			for run := 0; run < 3; run++ {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.name] = metricValue{Value: 100 + float64(run), Unit: d.unit}
				}
				if def.name == "fine" {
					m["inputs_per_s"] = metricValue{Value: (100 + float64(run)) * factor, Unit: "inputs/s"}
				}
				rec := &record{Workload: def.name, Report: report{Correct: failed == 0, Attempted: 50, Failed: failed, Metrics: m}}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A traced record in the same file is not part of the comparison.
		if err := appendRecord(path, &record{Workload: "fine", Trace: true}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", 1, 0)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("same.jsonl", 1, 0)); err != nil || worse {
		t.Fatalf("A/A: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, base, write("slow.jsonl", 0.7, 0))
	if err != nil || !worse {
		t.Fatalf("fine 30%% slower: worse=%v err=%v\n%s", worse, err, out.String())
	}
	// observed reads 100, 101, 102 in both sets; fine 0.7 times that in the slow one.
	if want := "cand: median -0.4286"; !strings.Contains(out.String(), want) {
		t.Errorf("no %q in\n%s", want, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		isRow := strings.HasPrefix(line, "fine") && strings.Contains(line, " inputs_per_s")
		if isRow != strings.HasSuffix(line, verdictWorse) {
			t.Errorf("unexpected verdict: %q", line)
		}
	}
	if worse, err := compareFiles(&out, base, write("failing.jsonl", 1, 1)); err != nil || !worse {
		t.Fatalf("failed calls must read worse: worse=%v err=%v", worse, err)
	}
}

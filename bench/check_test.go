package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/workload"
)

// fakeResult is a one-number output whose distance is the absolute
// difference.
type fakeResult float64

func (r fakeResult) Distance(ref workload.Result) float64 {
	return math.Abs(float64(r - ref.(fakeResult)))
}

// TestCheckerCountsFailures feeds the checker a truncated output, an
// out-of-band distance, a non-zero reservations distance and the other
// failure kinds, and sees each counted as a failed run.
func TestCheckerCountsFailures(t *testing.T) {
	good := core.Stats{Inputs: 64, Invocations: 70, UsefulInvocations: 64, Aborts: 1}
	aux := expectation{outLen: 64, inputs: 64, engines: 1, oracle: fakeResult(10), band: 0.5}
	resv := expectation{outLen: 64, inputs: 64, engines: 1, exact: true}
	seq := call{res: fakeResult(10), outLen: 64, st: good}
	with := func(mod func(*core.Stats)) core.Stats {
		st := good
		mod(&st)
		return st
	}
	cases := []struct {
		name   string
		expect expectation
		c      call
		why    string // "" = a correct run
	}{
		{"in band", aux, call{res: fakeResult(11.9), outLen: 64, st: good}, ""},
		{"truncated output", aux, call{res: fakeResult(10), outLen: 63, st: good}, "output length"},
		{"out of band", aux, call{res: fakeResult(12.1), outLen: 64, st: good}, "outside 4 x band"},
		{"NaN distance", aux, call{res: fakeResult(math.NaN()), outLen: 64, st: good}, "outside 4 x band"},
		{"reservations equal", resv, call{res: fakeResult(10), outLen: 64, st: good}, ""},
		{"reservations differ", resv, call{res: fakeResult(10.000001), outLen: 64, st: good}, "want 0"},
		{"inputs miscounted", aux, call{res: fakeResult(10), outLen: 64, st: with(func(s *core.Stats) { s.Inputs = 63 })}, "Stats.Inputs"},
		{"useful above total", aux, call{res: fakeResult(10), outLen: 64, st: with(func(s *core.Stats) { s.UsefulInvocations = 71 })}, "exceed"},
		{"two aborts", aux, call{res: fakeResult(10), outLen: 64, st: with(func(s *core.Stats) { s.Aborts = 2 })}, "aborts"},
		{"escaped panic", aux, call{err: errors.New("boom")}, "panicked"},
		{"contained panic", aux, call{res: fakeResult(10), outLen: 64, st: with(func(s *core.Stats) { s.Panics = []*core.PanicError{{Value: "boom"}} })}, "contained panic"},
	}
	p := &prepared{}
	bc := &benchCase{name: "fake"}
	wantFailed := 0
	for _, c := range cases {
		why, _ := c.expect.check(c.c, &seq)
		if (c.why == "") != (why == "") || !strings.Contains(why, c.why) {
			t.Errorf("%s: verdict %q, want one containing %q", c.name, why, c.why)
		}
		if c.why != "" {
			wantFailed++
		}
		p.tally(bc, "speculative", 1, why)
	}
	if p.attempted != len(cases) || p.failed != wantFailed {
		t.Errorf("tally: %d failed of %d, want %d of %d", p.failed, p.attempted, wantFailed, len(cases))
	}
	if len(p.failures) != wantFailed {
		t.Errorf("%d failure lines, want %d", len(p.failures), wantFailed)
	}
	if _, q := aux.check(call{res: fakeResult(11), outLen: 64, st: good}, nil); q != 2 {
		t.Errorf("quality ratio %v, want 2 (distance 1 over band 0.5)", q)
	}
}

// TestBCubedMatchesQuality pins the checker's contingency-table B³ to the
// program's own pairwise implementation, and to bit-equal results for
// equal labellings.
func TestBCubedMatchesQuality(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		pred, gold := make([]int, n), make([]int, n)
		for i := range pred {
			pred[i], gold[i] = r.Intn(1+trial), r.Intn(5)
		}
		got, want := bcubed(pred, gold), quality.BCubed(pred, gold)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: bcubed %v, quality.BCubed %v", trial, got, want)
		}
		if again := bcubed(append([]int(nil), pred...), gold); again != got {
			t.Fatalf("trial %d: equal labellings gave %v and %v", trial, got, again)
		}
	}
	if got := bcubed(nil, nil); got != quality.BCubed(nil, nil) {
		t.Errorf("bcubed of nothing = %v", got)
	}
}

// TestSynthClosedForm checks the synthetic dependence against a plain
// loop, and that its auxiliary code reproduces the exact state.
func TestSynthClosedForm(t *testing.T) {
	s := newSynth(9, 100)
	want := s.want()
	var st uint64
	for i, in := range s.inputs {
		var out uint64
		out, st = s.compute(nil, in, st)
		if out != want[i] {
			t.Fatalf("output %d = %d, closed form %d", i, out, want[i])
		}
		if got := s.aux(nil, 0, s.inputs[max(0, i-1):i+1]); got != st {
			t.Fatalf("aux after input %d = %d, state %d", i, got, st)
		}
	}
	if d := want.Distance(want[:99]); d != 1 {
		t.Errorf("distance to a truncated copy = %v, want 1", d)
	}
}

package harness

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/mathx"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// fig18Point is the mean relative speedup after encoding the first k
// tradeoffs of every benchmark (Table 1's column order = the expected-
// payoff order a developer would follow).
type fig18Point struct {
	Encoded int
	// RelativeSpeedup is the geometric-mean percentage of each
	// benchmark's full-STATS speedup.
	RelativeSpeedup float64
}

// fig18 sweeps the number of encoded tradeoffs (Fig. 18). Un-encoded
// tradeoffs are frozen at their defaults in the autotuner's space;
// un-encoded thread tradeoffs freeze the thread-split and group-size
// dimensions (the two thread counts every benchmark naturally has). The
// paper's result: one tradeoff gives ~55% of the full benefit, two ~95%.
func fig18(e *Env) []fig18Point {
	maxCols := 0
	for _, w := range e.Targets() {
		if n := len(w.Desc().TradeoffLOC); n > maxCols {
			maxCols = n
		}
	}
	var out []fig18Point
	for k := 0; k <= maxCols; k++ {
		var rel []float64
		for _, w := range e.Targets() {
			full := e.STATSSpeedup(w, taskgen.ParSTATS, 28)
			limited := e.limitedSpeedup(w, k)
			rel = append(rel, 100*limited/full)
		}
		out = append(out, fig18Point{Encoded: k, RelativeSpeedup: mathx.GeoMean(rel)})
	}
	return out
}

// limitedSpeedup tunes the workload with only the first k Table 1 columns
// encoded.
func (e *Env) limitedSpeedup(w workload.Workload, k int) float64 {
	d := w.Desc()
	if k > len(d.TradeoffLOC) {
		k = len(d.TradeoffLOC)
	}
	algo := len(d.Tradeoffs)
	p := e.profilerFor(w, taskgen.ParSTATS, 28)
	s := profiler.BuildSpace(d.Tradeoffs, 28)

	frozen := map[int]int64{}
	freeze := func(name string) {
		if i, ok := s.Find(name); ok {
			frozen[i] = s.Dims()[i].Default
		}
	}
	// Algorithmic tradeoffs beyond k freeze at their defaults.
	for ti := k; ti < algo; ti++ {
		freeze("aux." + d.Tradeoffs[ti].Name)
	}
	// The two trailing Table 1 columns are the thread tradeoffs: the
	// original-TLP thread count, then the state-dependence thread count
	// (whose lever in this runtime is the group size).
	if k < algo+1 {
		freeze("threads.original")
	}
	if k < algo+2 {
		freeze("dep.group")
	}
	// With zero tradeoffs encoded there is no auxiliary code to tune at
	// all: speculation stays available (the SDI is already in place) but
	// every knob sits at its default.
	res := autotune.Tune(s, p.Objective(s, profiler.Time, false), autotune.Options{
		Budget: e.Budget, Seed: e.Seed, Frozen: frozen, Seeds: profiler.SeedConfigs(s),
	})
	opts, th := profiler.Decode(s, res.Best)
	return e.SequentialTime(w) / p.Measure(opts, th).TimeSeconds
}

// fig18Table renders Fig. 18.
func fig18Table(e *Env) ([]*Table, error) {
	t := &Table{
		Title:   "Fig. 18 — Relative speedup vs number of tradeoffs encoded",
		Columns: []string{"% of full STATS speedup"},
	}
	for _, pt := range fig18(e) {
		t.AddRow(fmt.Sprintf("%d tradeoffs", pt.Encoded), fmtNum(pt.RelativeSpeedup))
	}
	t.AddNote("paper: ~55%% with one tradeoff, ~95%% with two")
	return []*Table{t}, nil
}

package harness

import "repro/internal/mathx"

// fig03Result is one benchmark's best out-of-the-box speedup.
type fig03Result struct {
	Name      string
	Speedup   float64
	AtThreads int
}

// fig03 measures the highest speedup the original (traditionally
// parallelized) benchmarks reach on the 28-core platform (Fig. 3). The
// distance from the ideal 28x is the paper's motivation: the need for
// scavenging additional TLP.
func fig03(e *Env) []fig03Result {
	var out []fig03Result
	for _, w := range e.Targets() {
		best, at := e.BestOriginal(w)
		out = append(out, fig03Result{Name: w.Desc().Name, Speedup: best, AtThreads: at})
	}
	return out
}

// fig03Table renders Fig. 3 with the paper's geometric-mean bar.
func fig03Table(e *Env) ([]*Table, error) {
	t := &Table{
		Title:   "Fig. 3 — Highest speedup of original benchmarks (28-core platform)",
		Columns: []string{"speedup", "at threads"},
	}
	var speedups []float64
	for _, r := range fig03(e) {
		t.AddRow(r.Name, fmtNum(r.Speedup), fmtNum(float64(r.AtThreads)))
		speedups = append(speedups, r.Speedup)
	}
	t.AddRow("geo. mean", fmtNum(mathx.GeoMean(speedups)), "")
	t.AddNote("ideal is 28x; the gap shows the need for scavenging additional TLP (paper geomean: 7.75x)")
	return []*Table{t}, nil
}

package harness

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/workload/registry"
)

// fig02Result is one workload's output-variability measurement.
type fig02Result struct {
	Name string
	// Variability is the mean domain-metric distance from the oracle
	// over repeated runs with random seeds, and Spread its standard
	// deviation — together the Fig. 2 quantity.
	Variability float64
	Spread      float64
	Source      string // "race" or "prvg" (Fig. 2's two bar colors)
}

// fig02 measures the output variability of the nondeterministic benchmarks
// over e.Runs runs with random seeds (Fig. 2). All seven benchmarks appear,
// including canneal.
func fig02(e *Env) []fig02Result {
	var out []fig02Result
	for _, w := range registry.All() {
		d := w.Desc()
		oracle := w.RunOracle(e.RealSize)
		// §4.1 methodology: repeat until 95% of the measurements are
		// within 5% of the mean (bounded by the environment's budget).
		res := measure.Repeat(func(run int) float64 {
			seed := e.Seed + uint64(run)*0x9E3779B9 + 1
			return w.RunOriginal(seed, e.RealSize).Distance(oracle)
		}, measure.Options{MinRuns: e.Runs / 2, MaxRuns: e.Runs})
		out = append(out, fig02Result{
			Name:        d.Name,
			Variability: res.Mean,
			Spread:      res.StdDev,
			Source:      d.VariabilitySource,
		})
	}
	return out
}

// fig02Table renders Fig. 2.
func fig02Table(e *Env) ([]*Table, error) {
	t := &Table{
		Title:   "Fig. 2 — Output variability of nondeterministic benchmarks",
		Columns: []string{"variability", "stddev", "source"},
	}
	for _, r := range fig02(e) {
		t.AddRow(r.Name, fmtSci(r.Variability), fmtSci(r.Spread), r.Source)
	}
	t.AddNote("variability = mean domain-metric distance from the oracle over %d runs (log-scale quantity in the paper)", e.Runs)
	return []*Table{t}, nil
}

// fmtSci formats a variability value compactly (the paper plots these on a
// log scale).
func fmtSci(v float64) string {
	if v == 0 {
		return "0"
	}
	return fmt.Sprintf("%.3g", v)
}

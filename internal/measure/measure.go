// Package measure implements the paper's measurement methodology (§4.1,
// "Statistics and convergence"): "We run the relevant configuration as many
// times as necessary to achieve a tight confidence interval where 95% of
// the measurements are within 5% of the mean."
package measure

import "repro/internal/mathx"

// The convergence rule: convergedFrac of the samples must lie within
// convergedTol (relative) of the mean.
const (
	convergedFrac = 0.95
	convergedTol  = 0.05
)

// Options controls a converging measurement.
type Options struct {
	// MinRuns and MaxRuns bound the repetition (defaults 3 and 100). A
	// caller's MaxRuns is a cap: MinRuns above it is clamped to it, and a
	// MinRuns above the default cap raises the default.
	MinRuns int
	MaxRuns int
}

func (o Options) withDefaults() Options {
	if o.MinRuns < 1 {
		o.MinRuns = 3
	}
	if o.MaxRuns < 1 {
		o.MaxRuns = max(100, o.MinRuns)
	}
	o.MinRuns = min(o.MinRuns, o.MaxRuns)
	return o
}

// Result reports a converged (or exhausted) measurement.
type Result struct {
	Mean      float64
	StdDev    float64
	Samples   []float64
	Converged bool
}

// Repeat calls sample (which receives the run index, usable as a seed
// offset) until the convergence rule holds or MaxRuns is reached.
func Repeat(sample func(run int) float64, o Options) Result {
	o = o.withDefaults()
	var xs []float64
	for run := 0; run < o.MaxRuns; run++ {
		xs = append(xs, sample(run))
		if len(xs) >= o.MinRuns && mathx.WithinFraction(xs, convergedFrac, convergedTol) {
			return Result{Mean: mathx.Mean(xs), StdDev: mathx.StdDev(xs), Samples: xs, Converged: true}
		}
	}
	return Result{Mean: mathx.Mean(xs), StdDev: mathx.StdDev(xs), Samples: xs, Converged: false}
}

package harness

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/mathx"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload/registry"
)

// fig20Point is the autotuner-convergence curve at one evaluation count:
// the mean (over benchmarks and search seeds) relative speedup of the best
// binary found so far, plus its variance across seeds.
type fig20Point struct {
	Evaluations int
	// RelativePct is the percentage of the final best speedup attained.
	RelativePct float64
	// SeedStdDev is the standard deviation across tuner seeds (the
	// paper: "the variance in best speedups disappears after exploring
	// 46 configurations").
	SeedStdDev float64
}

// fig20Summary is the convergence headline.
type fig20Summary struct {
	Points []fig20Point
	// EvalsToBest is the mean number of evaluations to reach within 1%
	// of the final best (paper: 88 were always enough).
	EvalsToBest float64
}

// fig20 runs the autotuner with several search seeds per benchmark and
// reports the convergence curve (Fig. 20).
func fig20(e *Env) fig20Summary {
	checkpoints := []int{5, 10, 20, 30, 46, 60, 88, 120}
	seeds := 5
	if e.Budget < 60 {
		seeds = 3
	}
	budget := e.Budget * 2
	// relCurves[seed*nW + w][checkpoint]
	var curves [][]float64
	var toBest []float64
	for _, w := range registry.Targets() {
		p := e.profilerFor(w, taskgen.ParSTATS, 28)
		s := profiler.BuildSpace(w.Desc().Tradeoffs, 28)
		obj := p.Objective(s, profiler.Time, false)
		for seed := 0; seed < seeds; seed++ {
			res := autotune.Tune(s, obj, autotune.Options{Budget: budget, Seed: e.Seed + uint64(seed)*977})
			final := res.BestVal
			var curve []float64
			for _, c := range checkpoints {
				if c > budget {
					c = budget
				}
				// Relative speedup: final/current (current >= final
				// since lower time is better), as a percentage.
				curve = append(curve, 100*final/res.Trace.BestAfter(c))
			}
			curves = append(curves, curve)
			toBest = append(toBest, float64(res.Trace.EvaluationsToReach(1.01)))
		}
	}
	sum := fig20Summary{EvalsToBest: mathx.Mean(toBest)}
	for ci, c := range checkpoints {
		var vals []float64
		for _, curve := range curves {
			vals = append(vals, curve[ci])
		}
		sum.Points = append(sum.Points, fig20Point{
			Evaluations: c,
			RelativePct: mathx.Mean(vals),
			SeedStdDev:  mathx.StdDev(vals),
		})
	}
	return sum
}

// fig20Table renders Fig. 20.
func fig20Table(e *Env) ([]*Table, error) {
	sum := fig20(e)
	t := &Table{
		Title:   "Fig. 20 — Autotuner convergence",
		Columns: []string{"% of best speedup", "stddev across seeds"},
	}
	for _, p := range sum.Points {
		t.AddRow(fmt.Sprintf("%d configs", p.Evaluations), fmtNum(p.RelativePct), fmtNum(p.SeedStdDev))
	}
	t.AddNote("mean evaluations to reach within 1%% of best: %.0f (paper: 88 configurations were always enough; variance gone by ~46)", sum.EvalsToBest)
	return []*Table{t}, nil
}

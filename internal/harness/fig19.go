package harness

import (
	"repro/internal/autotune"
	"repro/internal/mathx"
	"repro/internal/profiler"
	"repro/internal/taskgen"
)

// fig19Result is one benchmark's speedup when the autotuner trained on
// non-representative inputs (§4.6), evaluated on the real inputs.
type fig19Result struct {
	Name        string
	Original    float64
	ParSTATS    float64
	BadTraining float64
}

// fig19 trains each benchmark on the least-representative inputs (static
// subject, overlapping points, unrealistic swaptions, immobile face) and
// evaluates the resulting binary on the normal evaluation inputs. The
// runtime's checks keep correctness; only performance can suffer — and
// only a little.
func fig19(e *Env) []fig19Result {
	var out []fig19Result
	for _, w := range e.Targets() {
		seq := e.SequentialTime(w)
		origBest, _ := e.BestOriginal(w)

		// Honest tuning for reference.
		honest := e.STATSSpeedup(w, taskgen.ParSTATS, 28)

		// Misled tuning: the profiler sees bad training inputs.
		train := e.profilerFor(w, taskgen.ParSTATS, 28)
		train.Training = true
		s := profiler.BuildSpace(w.Desc().Tradeoffs, 28)
		res := autotune.Tune(s, train.Objective(s, profiler.Time, true), autotune.Options{
			Budget: e.Budget, Seed: e.Seed ^ 0xBAD, Seeds: profiler.SeedConfigs(s),
		})
		opts, th := profiler.Decode(s, res.Best)
		// Evaluate the chosen configuration on the real inputs.
		opts.BadTraining = false
		eval := e.profilerFor(w, taskgen.ParSTATS, 28)
		bad := seq / eval.Measure(opts, th).TimeSeconds

		out = append(out, fig19Result{
			Name:        w.Desc().Name,
			Original:    origBest,
			ParSTATS:    honest,
			BadTraining: bad,
		})
	}
	return out
}

// fig19Table renders Fig. 19.
func fig19Table(e *Env) ([]*Table, error) {
	res := fig19(e)
	t := &Table{
		Title:   "Fig. 19 — Performance with non-representative training inputs",
		Columns: []string{"Original", "Par. STATS", "Par. STATS w/ bad training"},
	}
	var o, p, b []float64
	for _, r := range res {
		t.AddRow(r.Name, fmtNum(r.Original), fmtNum(r.ParSTATS), fmtNum(r.BadTraining))
		o = append(o, r.Original)
		p = append(p, r.ParSTATS)
		b = append(b, r.BadTraining)
	}
	gmP, gmB := mathx.GeoMean(p), mathx.GeoMean(b)
	t.AddRow("geo. mean", fmtNum(mathx.GeoMean(o)), fmtNum(gmP), fmtNum(gmB))
	t.AddNote("bad training loses %.1f%% of the tuned speedup (the paper reports only a small loss)", 100*(1-gmB/gmP))
	return []*Table{t}, nil
}

package harness

import (
	"repro/internal/mathx"
	"repro/internal/profiler"
	"repro/internal/taskgen"
)

// fig15Result is one benchmark's energy comparison: STATS tuned for time
// and tuned for energy, relative to the peak-performing original version's
// energy (= 100).
type fig15Result struct {
	Name          string
	TimeModePct   float64
	EnergyModePct float64
}

// fig15 compares system-wide energy in the two STATS operating modes
// (Fig. 15), both on two sockets. Time mode saves energy by finishing
// earlier; energy mode saves more by also avoiding cores whose extra
// performance is not significant.
func fig15(e *Env) []fig15Result {
	var out []fig15Result
	for _, w := range e.Targets() {
		// Baseline: the original version at its peak-performing thread
		// count.
		_, bestAt := e.BestOriginal(w)
		baseEnergy := e.OriginalMeasure(w, bestAt).EnergyJ
		timeMeas, _, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
		energyMeas, energyOpts, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Energy)
		// The autotuner stores its exploration results so they can be
		// reused when the objective changes (§3.2); energy mode
		// therefore never does worse than the time-mode binary it has
		// already profiled. It additionally "avoids using extra cores
		// if the additional performance obtained by them is not
		// significant": sweep the core count for the energy-tuned
		// binary and keep the cheapest point.
		energyJ := energyMeas.EnergyJ
		if timeMeas.EnergyJ < energyJ {
			energyJ = timeMeas.EnergyJ
		}
		for _, th := range e.Threads {
			p := e.profilerFor(w, taskgen.ParSTATS, th)
			if meas := p.Measure(energyOpts, th); meas.EnergyJ < energyJ {
				energyJ = meas.EnergyJ
			}
		}
		out = append(out, fig15Result{
			Name:          w.Desc().Name,
			TimeModePct:   100 * timeMeas.EnergyJ / baseEnergy,
			EnergyModePct: 100 * energyJ / baseEnergy,
		})
	}
	return out
}

// fig15Table renders Fig. 15.
func fig15Table(e *Env) ([]*Table, error) {
	res := fig15(e)
	t := &Table{
		Title:   "Fig. 15 — Energy consumption relative to peak-performing original (=100)",
		Columns: []string{"time mode", "energy mode"},
	}
	var tm, em []float64
	for _, r := range res {
		t.AddRow(r.Name, fmtNum(r.TimeModePct), fmtNum(r.EnergyModePct))
		tm = append(tm, r.TimeModePct)
		em = append(em, r.EnergyModePct)
	}
	gmT, gmE := mathx.GeoMean(tm), mathx.GeoMean(em)
	t.AddRow("geo. mean", fmtNum(gmT), fmtNum(gmE))
	t.AddNote("savings: time mode %.1f%%, energy mode %.1f%% (paper: 61.98%% and 71.35%%)", 100-gmT, 100-gmE)
	return []*Table{t}, nil
}

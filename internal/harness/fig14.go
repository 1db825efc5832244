package harness

import (
	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// fig14Result is one benchmark's single-socket Hyper-Threading study.
type fig14Result struct {
	Name       string
	Original   float64 // 14 threads, HT off
	OriginalHT float64 // 28 hardware threads on 14 cores
	ParSTATS   float64
	ParSTATSHT float64
}

// fig14 constrains execution to a single socket and measures the extra
// performance Hyper-Threading provides (Fig. 14). The paper's reading: the
// +32% STATS gains from HT ≈ Intel's guidance for a successful HT use, so
// STATS is constrained by hardware resources, not by a lack of TLP.
func fig14(e *Env) []fig14Result {
	noHT := platform.SingleSocket14(false)
	withHT := platform.SingleSocket14(true)
	var out []fig14Result
	for _, w := range e.Targets() {
		r := fig14Result{Name: w.Desc().Name}
		seq := e.SequentialTime(w)
		measureOriginal := func(mach platform.Machine, threads int) float64 {
			p := &profiler.P{
				Machine: mach, Threads: threads, Energy: e.Energy,
				W: w, Size: e.Size, Mode: taskgen.Original, GraphSeed: e.Seed,
			}
			return seq / p.Measure(workload.SpecOptions{}, threads).TimeSeconds
		}
		// STATS performs its state-space search per machine ("the
		// default mode of operation for STATS" is a search for a number
		// of cores, §4.3).
		tuned := func(mach platform.Machine, key string, threads int) float64 {
			meas, _, _ := e.TunedSTATSOn(mach, key, w, taskgen.ParSTATS, threads, profiler.Time)
			return seq / meas.TimeSeconds
		}
		r.Original = measureOriginal(noHT, 14)
		r.OriginalHT = measureOriginal(withHT, 28)
		r.ParSTATS = tuned(noHT, "1s", 14)
		r.ParSTATSHT = tuned(withHT, "1sHT", 28)
		out = append(out, r)
	}
	return out
}

// fig14Table renders Fig. 14 with the paper's headline percentages.
func fig14Table(e *Env) ([]*Table, error) {
	res := fig14(e)
	t := &Table{
		Title:   "Fig. 14 — Single-socket Hyper-Threading study",
		Columns: []string{"Original", "Original w/ HT", "Par. STATS", "Par. STATS w/ HT"},
	}
	var o, oht, p, pht []float64
	for _, r := range res {
		t.AddRow(r.Name, fmtNum(r.Original), fmtNum(r.OriginalHT), fmtNum(r.ParSTATS), fmtNum(r.ParSTATSHT))
		o = append(o, r.Original)
		oht = append(oht, r.OriginalHT)
		p = append(p, r.ParSTATS)
		pht = append(pht, r.ParSTATSHT)
	}
	gmO, gmOHT := mathx.GeoMean(o), mathx.GeoMean(oht)
	gmP, gmPHT := mathx.GeoMean(p), mathx.GeoMean(pht)
	t.AddRow("geo. mean", fmtNum(gmO), fmtNum(gmOHT), fmtNum(gmP), fmtNum(gmPHT))
	t.AddNote("HT gain: Original +%.0f%%, Par. STATS +%.0f%% (paper: +13%%, +32%%; Intel guidance ~30%%)",
		100*(gmOHT/gmO-1), 100*(gmPHT/gmP-1))
	return []*Table{t}, nil
}

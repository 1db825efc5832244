package harness

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/taskgen"
)

// fig12Series is one benchmark's speedup-vs-threads curves.
type fig12Series struct {
	Name     string
	Threads  []int
	Original []float64
	SeqSTATS []float64
	ParSTATS []float64
}

// Max returns the series' maximum values (the bar graph next to each plot
// in Fig. 12).
func (s fig12Series) Max() (orig, seq, par float64) {
	return mathx.Max(s.Original), mathx.Max(s.SeqSTATS), mathx.Max(s.ParSTATS)
}

// fig12 sweeps hardware threads for the three parallelization approaches.
// "Original" is the out-of-the-box parallelization; "Seq. STATS" uses only
// state-dependence TLP (autotuned); "Par. STATS" combines both (autotuned —
// the default mode of STATS). All speedups are against the single-threaded
// out-of-the-box benchmark.
func fig12(e *Env) []fig12Series {
	var out []fig12Series
	for _, w := range e.Targets() {
		s := fig12Series{Name: w.Desc().Name, Threads: e.Threads}
		for _, th := range e.Threads {
			s.Original = append(s.Original, e.OriginalSpeedup(w, th))
			s.SeqSTATS = append(s.SeqSTATS, e.STATSSpeedup(w, taskgen.SeqSTATS, th))
			s.ParSTATS = append(s.ParSTATS, e.STATSSpeedup(w, taskgen.ParSTATS, th))
		}
		out = append(out, s)
	}
	return out
}

// fig12Table renders every benchmark's curve plus the max-speedup bars.
func fig12Table(e *Env) ([]*Table, error) {
	var tables []*Table
	for _, s := range fig12(e) {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 12 — %s: speedup vs hardware threads", s.Name),
			Columns: []string{"Original", "Seq. STATS", "Par. STATS"},
		}
		for i, th := range s.Threads {
			t.AddRow(fmt.Sprintf("%d threads", th), fmtNum(s.Original[i]), fmtNum(s.SeqSTATS[i]), fmtNum(s.ParSTATS[i]))
		}
		o, q, p := s.Max()
		t.AddRow("max", fmtNum(o), fmtNum(q), fmtNum(p))
		tables = append(tables, t)
	}
	return tables, nil
}

// fig13 returns the geometric means of the Fig. 12 curves (Fig. 13).
func fig13(e *Env) fig12Series {
	series := fig12(e)
	out := fig12Series{Name: "geo. mean", Threads: e.Threads}
	for i := range e.Threads {
		var o, q, p []float64
		for _, s := range series {
			o = append(o, s.Original[i])
			q = append(q, s.SeqSTATS[i])
			p = append(p, s.ParSTATS[i])
		}
		out.Original = append(out.Original, mathx.GeoMean(o))
		out.SeqSTATS = append(out.SeqSTATS, mathx.GeoMean(q))
		out.ParSTATS = append(out.ParSTATS, mathx.GeoMean(p))
	}
	return out
}

// fig13Table renders Fig. 13.
func fig13Table(e *Env) ([]*Table, error) {
	s := fig13(e)
	t := &Table{
		Title:   "Fig. 13 — Geometric mean of Fig. 12 speedups",
		Columns: []string{"Original", "Par. STATS"},
	}
	for i, th := range s.Threads {
		t.AddRow(fmt.Sprintf("%d threads", th), fmtNum(s.Original[i]), fmtNum(s.ParSTATS[i]))
	}
	last := len(s.Threads) - 1
	t.AddNote("paper at 28 threads: Original 7.75x -> Par. STATS 20.01x (+158.2%%); here: %sx -> %sx (+%.1f%%)",
		fmtNum(s.Original[last]), fmtNum(s.ParSTATS[last]),
		100*(s.ParSTATS[last]/s.Original[last]-1))
	return []*Table{t}, nil
}

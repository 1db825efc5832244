package harness

import (
	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/related"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// fig17Result is one benchmark's best speedup per approach, for the
// sequential-based and parallel-based variants.
type fig17Result struct {
	Name string
	Seq  map[related.Approach]float64
	Par  map[related.Approach]float64
}

// fig17 compares STATS against the related approaches on the same state
// dependences (Fig. 17), keeping each approach's best admissible
// configuration ("without exceeding the original output variability").
func fig17(e *Env) []fig17Result {
	var out []fig17Result
	for _, w := range e.Targets() {
		d := w.Desc()
		seqTime := e.SequentialTime(w)
		r := fig17Result{
			Name: d.Name,
			Seq:  map[related.Approach]float64{},
			Par:  map[related.Approach]float64{},
		}
		for _, a := range related.Approaches {
			for _, mode := range []taskgen.Mode{taskgen.SeqSTATS, taskgen.ParSTATS} {
				var opts workload.SpecOptions
				if a == related.STATS {
					_, opts, _ = e.TunedSTATS(w, mode, 28, 0)
				} else {
					opts = workload.SpecOptions{UseAux: true, GroupSize: 4, Window: 2, RedoMax: 2, Rollback: 2}
				}
				m := w.CostModel(e.Size, opts)
				g := related.Graph(a, mode, d, m, opts, e.Seed)
				speedup := seqTime / platform.Simulate(e.Machine, g, 28).Makespan
				if mode == taskgen.SeqSTATS {
					r.Seq[a] = speedup
				} else {
					r.Par[a] = speedup
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// fig17Table renders Fig. 17.
func fig17Table(e *Env) ([]*Table, error) {
	res := fig17(e)
	var cols []string
	for _, a := range related.Approaches {
		cols = append(cols, "Seq. "+a.String())
	}
	for _, a := range related.Approaches {
		cols = append(cols, "Par. "+a.String())
	}
	t := &Table{Title: "Fig. 17 — STATS vs related approaches (speedup at 28 threads)", Columns: cols}
	perApproach := map[string][]float64{}
	for _, r := range res {
		var cells []string
		for _, a := range related.Approaches {
			cells = append(cells, fmtNum(r.Seq[a]))
			perApproach["Seq. "+a.String()] = append(perApproach["Seq. "+a.String()], r.Seq[a])
		}
		for _, a := range related.Approaches {
			cells = append(cells, fmtNum(r.Par[a]))
			perApproach["Par. "+a.String()] = append(perApproach["Par. "+a.String()], r.Par[a])
		}
		t.AddRow(r.Name, cells...)
	}
	var geo []string
	for _, c := range cols {
		geo = append(geo, fmtNum(mathx.GeoMean(perApproach[c])))
	}
	t.AddRow("geo. mean", geo...)
	t.AddNote("only STATS exploits non-trivial state dependences; ALTER/QuickStep/HELIX-UP break only swaptions' scalar reduction; Fast Track always aborts")
	return []*Table{t}, nil
}

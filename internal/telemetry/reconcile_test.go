package telemetry

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestReconcileNamesTheRow: a real run's accounts reconcile, and a one-off
// perturbation of any one account of a row — its Stats field, the kind's
// counter (an extra Note), the event log (a bare Emit) or the exposition
// (edited text) — is reported under that row's metric name and no other. A
// tracer that dropped events skips the event comparison and nothing else.
func TestReconcileNamesTheRow(t *testing.T) {
	row := obs.EvAbort.Fact().Metric
	perturb := map[string]func(ob *obs.Observer, st *core.Stats, text *string){
		"nothing":   func(*obs.Observer, *core.Stats, *string) {},
		"Stats":     func(_ *obs.Observer, st *core.Stats, _ *string) { st.Aborts++ },
		"counter":   func(ob *obs.Observer, _ *core.Stats, _ *string) { ob.Note(0, obs.EvAbort, 0, 0) },
		"event log": func(ob *obs.Observer, _ *core.Stats, _ *string) { ob.Tracer.Emit(0, obs.EvAbort, 0, 0) },
		"exposition": func(_ *obs.Observer, _ *core.Stats, text *string) {
			*text = strings.Replace(*text, "\n"+row+" ", "\n"+row+" 9", 1)
		},
	}
	inputs := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	for _, perLaneCap := range []int{1 << 12, 8} {
		for account, fn := range perturb {
			ob := obs.NewObserver(1, perLaneCap)
			_, _, st := core.New(propCompute, propAux, propOps()).Run(inputs, propState{}, core.Options{
				UseAux: true, GroupSize: 4, Window: 1, RedoMax: 1, Rollback: 1, Workers: 2, Obs: ob,
			})
			if dropped := ob.Tracer.Dropped() > 0; dropped != (perLaneCap == 8) {
				t.Fatalf("capacity %d: %d events dropped", perLaneCap, ob.Tracer.Dropped())
			}
			text := ob.Reg.Text()
			fn(ob, &st, &text)
			m, err := ParsePromText(text)
			if err != nil {
				t.Fatal(err)
			}
			err = Reconcile(st, ob, m)
			if want := account != "nothing" && (perLaneCap != 8 || account != "event log"); (err != nil) != want {
				t.Errorf("capacity %d, %s perturbed: Reconcile = %v, want an error: %v", perLaneCap, account, err, want)
			}
			if err == nil {
				continue
			}
			for _, line := range strings.Split(err.Error(), "\n") {
				if !strings.HasPrefix(line, row+": ") {
					t.Errorf("capacity %d, %s perturbed: %q does not name %s", perLaneCap, account, line, row)
				}
			}
		}
	}
}

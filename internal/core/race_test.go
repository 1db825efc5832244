package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestTracedAbortRaceStress runs the engine with tracing attached under
// conditions that force validation mismatches, redos and aborts — a tight
// acceptance tolerance against a noisy compute — while reader goroutines
// snapshot the event log and scrape the registry the whole time. Under
// `go test -race` (the `make race` tier) this is the observability
// layer's end-to-end safety proof: coordinator validation events race
// worker group-completion events and concurrent Snapshots, and nothing
// tears. The counters must still reconcile with the engine's own Stats
// once the run returns.
func TestTracedAbortRaceStress(t *testing.T) {
	inputs := seqInputs(48)
	seeds := uint64(30)
	if testing.Short() {
		seeds = 6
	}
	var aborts, mismatches int
	for seed := uint64(0); seed < seeds; seed++ {
		// Ample per-lane capacity: the reconciliation below assumes no
		// ring eviction.
		ob := obs.NewObserver(8, 4096)

		stop := make(chan struct{})
		var rwg sync.WaitGroup
		rwg.Add(2)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, e := range ob.Tracer.Snapshot() {
						if e.Kind == obs.EvNone || e.Kind.String() == "unknown" {
							t.Errorf("seed %d: torn event %+v", seed, e)
							return
						}
					}
				}
			}
		}()
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = ob.Reg.Text()
				}
			}
		}()

		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(0.35))
		outs, _, st := d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 8, Window: 48, Workers: 4,
			RedoMax: 1, Rollback: 2, Seed: seed, Obs: ob,
		})
		close(stop)
		rwg.Wait()

		checkOutputs(t, outs, wantOutputs(inputs))
		checkFacts(t, fmt.Sprintf("seed %d", seed), ob, st)
		aborts += st.Aborts
		mismatches += int(ob.Counts()[obs.EvValidateMismatch])
	}
	// The stress is only meaningful if the contested paths actually ran.
	if mismatches == 0 {
		t.Fatal("no validation ever mismatched; tolerance model broken")
	}
	if aborts == 0 {
		t.Fatal("no abort ever happened; the abort/in-flight race went unexercised")
	}
}

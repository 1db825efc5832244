package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
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

// TestResolverHandOverRace hammers the resolver role's hand-over: many
// one-input groups on four lanes, so lanes finish, take the role, release
// it and re-check in every interleaving the host produces, some runs
// streaming (the frontier and the nudge race the coordinator too). A finish
// missed between a release and a re-check leaves a boundary unresolved —
// the run would hang on its one wait or commit short — and a role held by
// two lanes at once is a data race on Stats and the originals set. Every
// run must resolve every boundary and return the sequential outputs.
func TestResolverHandOverRace(t *testing.T) {
	inputs := seqInputs(96)
	want := wantOutputs(inputs)
	p := pool.New(4)
	defer p.Close()
	runs := 200
	if testing.Short() {
		runs = 40
	}
	exact := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	noisy := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(0.9))
	for i := 0; i < runs; i++ {
		opts := Options{
			UseAux: true, GroupSize: 1 + i%3, Window: 96, RedoMax: 2, Rollback: 1,
			Pool: p, Seed: uint64(i),
		}
		var emit Emit[int]
		emitted := 0
		if i%2 == 1 {
			emit = func(idx, _ int) {
				if idx != emitted {
					t.Errorf("run %d: emit(%d) after %d outputs", i, idx, emitted)
				}
				emitted++
			}
		}
		d := exact
		if i%4 >= 2 {
			d = noisy
		}
		outs, _, st := d.RunStream(inputs, walkState{}, opts, emit)
		checkOutputs(t, outs, want)
		if emit != nil && emitted != len(inputs) {
			t.Fatalf("run %d: %d outputs emitted", i, emitted)
		}
		if d == exact && (st.Aborts != 0 || st.Matches != st.Groups-1) {
			t.Fatalf("run %d: a boundary went unresolved: %+v", i, st)
		}
		if st.Matches+st.Aborts == 0 || st.Aborts > 1 || st.Invocations < int64(len(inputs)) {
			t.Fatalf("run %d: stats do not reconcile: %+v", i, st)
		}
	}
}

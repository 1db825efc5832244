package stats

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestSharedRuntimeAcrossDependences(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()
	if rt.Workers() != 4 {
		t.Fatalf("workers: %d", rt.Workers())
	}

	inputs := inputsN(12)
	match := func(spec counter, originals []counter) bool {
		for _, o := range originals {
			if math.Abs(spec.V-o.V) < 1e-9 {
				return true
			}
		}
		return false
	}

	build := func(seed uint64) *StateDependence[int, counter, int] {
		sd := NewStateDependence(inputs, counter{}, computeDouble)
		sd.SetAuxiliary(exactAux(inputs))
		sd.SetStateOps(nil, match)
		sd.Configure(Options{UseAux: true, GroupSize: 3, Window: 12, Seed: seed})
		return Attach(rt, sd)
	}

	// Two dependences run concurrently on the same pool (the paper's
	// shared-pool design).
	a, b := build(1), build(2)
	var wg sync.WaitGroup
	for _, sd := range []*StateDependence[int, counter, int]{a, b} {
		sd := sd
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, final, st := sd.Run()
			if len(outs) != 12 || final.V != 78 {
				t.Errorf("bad result: %d outputs, final %v", len(outs), final.V)
			}
			if st.Matches != 3 {
				t.Errorf("matches: %d", st.Matches)
			}
		}()
	}
	wg.Wait()
	m := rt.Scheduler()
	if m.Executed == 0 {
		t.Fatal("shared pool never used")
	}
	if m.Steals+m.LocalHits != m.Executed {
		t.Fatalf("dispatch split %d+%d != executed %d", m.Steals, m.LocalHits, m.Executed)
	}
	if m.Submitted != m.Executed {
		t.Fatalf("submitted %d != executed %d after both runs joined", m.Submitted, m.Executed)
	}
	if m.QueueDepthPeak < 1 {
		t.Fatalf("queue depth peak %d", m.QueueDepthPeak)
	}
	if len(m.QueueDepths) != rt.Workers() {
		t.Fatalf("queue depth gauges: %d, want %d", len(m.QueueDepths), rt.Workers())
	}
	for i, d := range m.QueueDepths {
		if d != 0 {
			t.Fatalf("worker %d deque not drained: depth %d", i, d)
		}
	}
}

// TestClosedRuntimeFallsBackInline pins the engine's inline-suffix path
// under both protocols: a closed Runtime rejects the whole fan-out batch,
// the coordinator runs it inline, and the run is indistinguishable — by
// outputs, final state and every deterministic Stats field — from the same
// run on an open Runtime.
func TestClosedRuntimeFallsBackInline(t *testing.T) {
	inputs := inputsN(6)
	for _, proto := range []Protocol{ProtocolAux, ProtocolReservations} {
		run := func(rt *Runtime) ([]int, counter, RunStats) {
			sd := Attach(rt, NewStateDependence(inputs, counter{}, computeDouble))
			sd.SetAuxiliary(exactAux(inputs))
			sd.Configure(Options{UseAux: true, Protocol: proto, GroupSize: 2, Window: 6, Seed: 3})
			outs, final, st := sd.Run()
			// Timing- and scheduler-dependent fields differ run to run.
			st.LaneCPUCommittedNS, st.LaneCPUWastedNS = 0, 0
			st.Steals, st.LocalHits, st.QueueDepthPeak = 0, 0, 0
			return outs, final, st
		}
		live := NewRuntime(2)
		wantOuts, wantFinal, wantSt := run(live)
		live.Close()
		closed := NewRuntime(2)
		closed.Close()
		outs, final, st := run(closed)

		if len(outs) != 6 || final.V != 21 || wantSt.Groups != 3 {
			t.Fatalf("%v: inline fallback broken: %d outputs, final %v, %d groups", proto, len(outs), final.V, wantSt.Groups)
		}
		if !reflect.DeepEqual(outs, wantOuts) || final != wantFinal {
			t.Errorf("%v: closed runtime: outs %v final %v, open runtime: outs %v final %v", proto, outs, final, wantOuts, wantFinal)
		}
		if !reflect.DeepEqual(st, wantSt) {
			t.Errorf("%v: closed runtime stats %+v, open runtime %+v", proto, st, wantSt)
		}
	}
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	rt := NewRuntime(1)
	rt.Close()
	rt.Close()
}

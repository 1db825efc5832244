package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/rng"
)

func TestRunStreamEmitsAllInOrder(t *testing.T) {
	inputs := seqInputs(24)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	var idxs []int
	var vals []int
	outs, _, st := d.RunStream(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 6, Window: 24, Workers: 4, Seed: 1,
	}, func(i int, o int) {
		idxs = append(idxs, i)
		vals = append(vals, o)
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if len(idxs) != 24 {
		t.Fatalf("emitted %d outputs", len(idxs))
	}
	for i := range idxs {
		if idxs[i] != i {
			t.Fatalf("emission order broken at %d: %v", i, idxs[i])
		}
		if vals[i] != outs[i] {
			t.Fatalf("emitted value %d != returned %d at %d", vals[i], outs[i], i)
		}
	}
	if st.Matches != 3 {
		t.Fatalf("matches: %d", st.Matches)
	}
}

func TestRunStreamSequentialPath(t *testing.T) {
	inputs := seqInputs(8)
	d := New(deterministicCompute, nil, walkOps())
	var n int
	d.RunStream(inputs, walkState{}, Options{Seed: 1}, func(i int, o int) {
		if i != n {
			t.Fatalf("order: got %d want %d", i, n)
		}
		n++
	})
	if n != 8 {
		t.Fatalf("emitted: %d", n)
	}
}

func TestRunStreamAbortPathEmitsEverything(t *testing.T) {
	inputs := seqInputs(12)
	d := New(deterministicCompute, badAux, walkOps())
	var n int
	outs, _, st := d.RunStream(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 2, RedoMax: 1, Rollback: 1, Workers: 2, Seed: 3,
	}, func(i int, o int) {
		if i != n {
			t.Fatalf("order: got %d want %d", i, n)
		}
		n++
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if n != 12 {
		t.Fatalf("emitted: %d", n)
	}
	if st.Aborts != 1 {
		t.Fatalf("aborts: %d", st.Aborts)
	}
}

func TestRunStreamNilEmitEqualsRun(t *testing.T) {
	inputs := seqInputs(10)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	o := Options{UseAux: true, GroupSize: 5, Window: 10, Seed: 4}
	a, _, _ := d.RunStream(inputs, walkState{}, o, nil)
	b, _, _ := d.Run(inputs, walkState{}, o)
	checkOutputs(t, a, b)
}

func TestRunStreamOverlapsWithTail(t *testing.T) {
	// The last group is slow: early groups' outputs must commit well
	// before the run completes — the consumer can overlap.
	inputs := seqInputs(16)
	slowCompute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in > 12 { // last group of 4
			time.Sleep(20 * time.Millisecond)
		}
		return deterministicCompute(r, in, s)
	}
	d := New(slowCompute, exactAuxFor(inputs), walkOps())
	var firstEmit, lastEmit time.Time
	start := time.Now()
	d.RunStream(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 4, Window: 16, Workers: 4, Seed: 5,
	}, func(i int, o int) {
		if firstEmit.IsZero() {
			firstEmit = time.Now()
		}
		lastEmit = time.Now()
	})
	total := lastEmit.Sub(start)
	early := firstEmit.Sub(start)
	if early >= total/2 {
		t.Fatalf("first commit at %v of %v: no streaming overlap", early, total)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1] // "goroutine N [running]:"
}

// TestEmitStaysOnCallerGoroutine pins Emit's contract now that boundaries
// resolve on the lanes: every call is made by the goroutine that called
// RunStream, in input order, never concurrently. The callback appends to a
// caller-local slice with no synchronisation, so under -race a call from a
// lane, or two overlapping calls, is a reported race as well as a failure.
func TestEmitStaysOnCallerGoroutine(t *testing.T) {
	inputs := seqInputs(256)
	for _, aux := range []Aux[int, walkState]{exactAuxFor(inputs), badAux} {
		caller := goid()
		var got []int
		outs, _, _ := New(deterministicCompute, aux, walkOps()).RunStream(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 4, Window: 256, Workers: 4, RedoMax: 1, Rollback: 2, Seed: 11,
		}, func(i, o int) {
			if id := goid(); id != caller {
				t.Errorf("emit(%d) ran on goroutine %s, caller is %s", i, id, caller)
			}
			if i != len(got) {
				t.Errorf("emit(%d) out of order after %d outputs", i, len(got))
			}
			got = append(got, o)
		})
		checkOutputs(t, got, outs)
		checkOutputs(t, outs, wantOutputs(inputs))
	}
}

// TestEmitPanicSurfacesWithLaneSideResolution: an emit that panics while
// the lanes are still executing and resolving surfaces from RunStreamChecked
// as a *PanicError, the outputs emitted before it stand, and the run waited
// for its lanes before recycling their scratch — the next run on the same
// Dependence and the same shared pool is clean.
func TestEmitPanicSurfacesWithLaneSideResolution(t *testing.T) {
	inputs := seqInputs(128)
	p := pool.New(2)
	defer p.Close()
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	opts := Options{UseAux: true, GroupSize: 4, Window: 128, Pool: p, Seed: 12}
	emitted := 0
	_, _, _, err := d.RunStreamChecked(inputs, walkState{}, opts, func(i, o int) {
		if i == 6 {
			panic("emit boom")
		}
		emitted++
	})
	pe, ok := err.(*PanicError)
	if !ok || pe.Value != "emit boom" {
		t.Fatalf("err = %v, want the emit panic", err)
	}
	if emitted != 6 {
		t.Fatalf("%d outputs emitted before the panic, want 6", emitted)
	}
	outs, _, st, err := d.RunStreamChecked(inputs, walkState{}, opts, func(int, int) {})
	if err != nil || st.Matches != st.Groups-1 {
		t.Fatalf("run after the emit panic: err %v, stats %+v", err, st)
	}
	checkOutputs(t, outs, wantOutputs(inputs))
}

// TestEmitPanicWaitsForARunningLane: the caller is a lane now, and emits
// between its groups, so an emit panic unwinds through the lane loop — and
// must still wait for the other lane before the scratch is recycled. Two
// lanes: the pool's is parked inside a compute when the first emit panics on
// the caller. RunStreamChecked returns only after that compute returned (the
// pool lane then finishes the groups the caller abandoned), and the next run
// on the same Dependence and the same pool is clean.
func TestEmitPanicWaitsForARunningLane(t *testing.T) {
	inputs := seqInputs(64)
	p := pool.New(1)
	defer p.Close()
	var caller string
	var park sync.Once
	var computeReturned atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	d := New(func(r *rng.Source, in int, s walkState) (int, walkState) {
		// Not in groups 0 and 1: the caller's first emit needs boundary 1.
		if in > 8 && goid() != caller {
			park.Do(func() {
				close(parked)
				<-release
				computeReturned.Store(true)
			})
		}
		return deterministicCompute(r, in, s)
	}, exactAuxFor(inputs), walkOps())
	opts := Options{UseAux: true, GroupSize: 4, Window: 64, Pool: p, Seed: 13} // the pool's width + 1: two lanes

	var err error
	var returnedAfterCompute bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		caller = goid()
		_, _, _, err = d.RunStreamChecked(inputs, walkState{}, opts, func(int, int) {
			<-parked // the pool lane is inside its compute
			panic("emit boom")
		})
		returnedAfterCompute = computeReturned.Load()
	}()
	<-parked
	select {
	case <-done:
		t.Fatal("RunStreamChecked returned under a running lane")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-done
	if pe, ok := err.(*PanicError); !ok || pe.Value != "emit boom" {
		t.Fatalf("err = %v, want the emit panic", err)
	}
	if !returnedAfterCompute {
		t.Fatal("RunStreamChecked returned before the pool lane's compute did")
	}
	caller = goid()
	outs, _, st, err := d.RunStreamChecked(inputs, walkState{}, opts, func(int, int) {})
	if err != nil || st.Matches != st.Groups-1 {
		t.Fatalf("run after the emit panic: err %v, stats %+v", err, st)
	}
	checkOutputs(t, outs, wantOutputs(inputs))
}

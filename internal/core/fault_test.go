package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// panicOnce builds a compute that panics the first time it sees the given
// input value and behaves deterministically ever after — the shape of a
// transient fault: the speculative lane dies, the fallback re-execution
// succeeds.
func panicOnce(trigger int) Compute[int, walkState, int] {
	var tripped atomic.Bool
	return func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == trigger && tripped.CompareAndSwap(false, true) {
			panic("transient user bug")
		}
		return deterministicCompute(r, in, s)
	}
}

func TestLanePanicContained(t *testing.T) {
	// A panic on a speculative lane must not kill the process or corrupt
	// the output: the group squashes, the inputs replay sequentially, and
	// the run completes with byte-identical results.
	inputs := seqInputs(12)
	d := New(panicOnce(8), exactAuxFor(inputs), walkOps())
	o := obs.NewObserver(8, 0)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 3, Obs: o,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.PanickedGroups < 1 {
		t.Fatalf("PanickedGroups = %d, want >= 1", st.PanickedGroups)
	}
	if st.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", st.Aborts)
	}
	if st.SquashedInputs != st.FallbackInputs {
		t.Fatalf("SquashedInputs %d != FallbackInputs %d", st.SquashedInputs, st.FallbackInputs)
	}
	if st.FallbackInputs < 3 {
		t.Fatalf("FallbackInputs = %d, want >= one group", st.FallbackInputs)
	}

	// Stats, metrics and the event log must agree on the panic count.
	checkFacts(t, "lane panic", o, st)
}

func TestAuxPanicContained(t *testing.T) {
	// A panicking auxiliary function fails its group on the group's lane;
	// the boundary inspection converts that into an ordinary abort.
	inputs := seqInputs(12)
	exact := exactAuxFor(inputs)
	var calls atomic.Int32
	aux := func(r *rng.Source, init walkState, recent []int) walkState {
		if calls.Add(1) == 2 {
			panic("aux bug")
		}
		return exact(r, init, recent)
	}
	d := New(deterministicCompute, aux, walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 3,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.PanickedGroups != 1 {
		t.Fatalf("PanickedGroups = %d, want 1", st.PanickedGroups)
	}
	// Aux attempts are counted where they run: the panicking call counts,
	// a successor squashed before its task started never calls its aux.
	if st.AuxCalls != int(calls.Load()) || st.AuxCalls < 2 || st.AuxCalls > st.Groups-1 {
		t.Fatalf("AuxCalls = %d, aux ran %d times, want 2..Groups-1 = %d", st.AuxCalls, calls.Load(), st.Groups-1)
	}
}

func TestMatchAnyPanicContained(t *testing.T) {
	// A panic in the developer's acceptance method is attributed to the
	// boundary's unvalidated group and contained like any lane panic.
	inputs := seqInputs(12)
	calls := 0
	ops := walkOps()
	base := ops.MatchAny
	ops.MatchAny = func(spec walkState, originals []walkState) bool {
		calls++
		if calls == 2 {
			panic("match bug")
		}
		return base(spec, originals)
	}
	d := New(deterministicCompute, exactAuxFor(inputs), ops)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 3,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.PanickedGroups != 1 {
		t.Fatalf("PanickedGroups = %d, want 1", st.PanickedGroups)
	}
	if st.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", st.Aborts)
	}
}

func TestGroupZeroPanicFallsBackFromInitial(t *testing.T) {
	// Group 0 runs from the true initial state; if its lane panics the
	// whole vector replays sequentially from that same initial state.
	inputs := seqInputs(9)
	d := New(panicOnce(1), exactAuxFor(inputs), walkOps())
	outs, final, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 9, Workers: 4, Seed: 5,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	want := 0.0
	for _, v := range inputs {
		want += float64(v)
	}
	if final.V != want {
		t.Fatalf("final state %v, want %v", final.V, want)
	}
	if st.FallbackInputs != len(inputs) || st.SquashedInputs != len(inputs) {
		t.Fatalf("fallback=%d squashed=%d, want both %d",
			st.FallbackInputs, st.SquashedInputs, len(inputs))
	}
	if st.SpeculativeCommits != 0 {
		t.Fatalf("SpeculativeCommits = %d, want 0", st.SpeculativeCommits)
	}
}

func TestGroupTimeoutSquashes(t *testing.T) {
	// A speculative lane exceeding GroupTimeout squashes like a mismatch;
	// group 0 is exempt, so the run still completes correctly.
	inputs := seqInputs(12)
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in > 3 { // groups past the first are slow
			time.Sleep(20 * time.Millisecond)
		}
		return deterministicCompute(r, in, s)
	}
	d := New(compute, exactAuxFor(inputs), walkOps())
	o := obs.NewObserver(8, 0)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 9,
		GroupTimeout: time.Millisecond, Obs: o,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.TimedOutGroups < 1 {
		t.Fatalf("TimedOutGroups = %d, want >= 1", st.TimedOutGroups)
	}
	if st.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", st.Aborts)
	}
	checkFacts(t, "group timeout", o, st)
	for _, ev := range o.Tracer.Snapshot() {
		if ev.Kind == obs.EvGroupTimeout && ev.Arg <= 0 {
			t.Fatalf("timeout event arg %d, want elapsed ns > 0", ev.Arg)
		}
	}
}

func TestGroupTimeoutZeroDisables(t *testing.T) {
	inputs := seqInputs(12)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	_, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 2,
	})
	if st.TimedOutGroups != 0 {
		t.Fatalf("TimedOutGroups = %d with no deadline", st.TimedOutGroups)
	}
}

func TestRunCheckedReportsSequentialPanic(t *testing.T) {
	// With no speculation there is no safe fallback: RunChecked converts
	// the propagating panic into a *PanicError carrying the origin stack.
	compute := func(_ *rng.Source, in int, s walkState) (int, walkState) {
		panic("seq bug")
	}
	d := New(compute, nil, walkOps())
	_, _, _, err := d.RunChecked(seqInputs(3), walkState{}, Options{Seed: 1})
	if err == nil {
		t.Fatal("RunChecked returned nil error for a sequential panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T, want *PanicError", err)
	}
	if pe.Value != "seq bug" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "fault_test.go") {
		t.Fatalf("stack lost the panic origin:\n%s", pe.Stack)
	}
}

func TestRunCheckedContainsLanePanic(t *testing.T) {
	// A transient speculative-lane panic is contained either way;
	// RunChecked reports success.
	inputs := seqInputs(12)
	d := New(panicOnce(8), exactAuxFor(inputs), walkOps())
	outs, _, st, err := d.RunChecked(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 3,
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.PanickedGroups < 1 {
		t.Fatalf("PanickedGroups = %d, want >= 1", st.PanickedGroups)
	}
}

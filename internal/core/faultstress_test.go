package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rng"
)

// TestFaultStressRace crosses fault injection with the engine's concurrency
// knobs — Workers × RedoMax × GroupTimeout × injection mix — under the race
// detector. Every cell must complete without a crash and commit the exact
// deterministic outputs; the failure counters are not asserted per cell
// (which faults land where is scheduling-dependent), only the output and
// conservation contracts are.
func TestFaultStressRace(t *testing.T) {
	type mix struct {
		name                    string
		auxRate, garbageRate    float64
		computeOnce, slowInputs bool
	}
	mixes := []mix{
		{name: "aux-panic", auxRate: 0.2},
		{name: "garbage", garbageRate: 0.2},
		{name: "compute-once", computeOnce: true},
		{name: "everything", auxRate: 0.15, garbageRate: 0.15, computeOnce: true, slowInputs: true},
	}
	for _, proto := range []Protocol{ProtocolAux, ProtocolReservations} {
		for _, workers := range []int{1, 4, 8} {
			for _, redoMax := range []int{0, 2} {
				for _, timeout := range []time.Duration{0, 500 * time.Microsecond} {
					for _, m := range mixes {
						if proto == ProtocolReservations && !m.computeOnce && !m.slowInputs {
							// Aux and garbage faults have no aux to land on
							// under reservations; those cells would be
							// fault-free reruns.
							continue
						}
						proto, workers, redoMax, timeout, m := proto, workers, redoMax, timeout, m
						name := fmt.Sprintf("%s/%s/w%d/r%d/t%v", proto, m.name, workers, redoMax, timeout)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							stressOne(t, proto, workers, redoMax, timeout, m.auxRate,
								m.garbageRate, m.computeOnce, m.slowInputs)
						})
					}
				}
			}
		}
	}
}

// stressOne runs one injected configuration and checks the §3.1 contract.
func stressOne(t *testing.T, proto Protocol, workers, redoMax int, timeout time.Duration, auxRate, garbageRate float64, computeOnce, slowInputs bool) {
	const n = 96
	inputs := seqInputs(n)
	in := fault.New(fault.Config{
		Seed:         uint64(workers*1000+redoMax*100) + uint64(timeout),
		AuxPanicRate: auxRate, GarbageRate: garbageRate, ComputePanicRate: 0.2,
	})
	compute := deterministicCompute
	if slowInputs {
		compute = func(r *rng.Source, v int, s walkState) (int, walkState) {
			if v%7 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			return deterministicCompute(r, v, s)
		}
	}
	if computeOnce {
		compute = fault.WrapComputeOnce(in, compute,
			func(v int) uint64 { return uint64(v) })
	}
	aux := exactAuxFor(inputs)
	if auxRate > 0 || garbageRate > 0 {
		aux = fault.WrapAux(in, aux,
			func(s walkState) walkState { return walkState{V: s.V - 1e12} })
	}
	d := New(compute, aux, walkOps())
	opts := Options{
		UseAux: true, Protocol: proto, GroupSize: 8, Window: n, RedoMax: redoMax,
		Rollback: 4, Workers: workers, Seed: 0xFA17, GroupTimeout: timeout,
	}
	outs, final, st, err := d.RunChecked(inputs, walkState{}, opts)
	if pe := (*PanicError)(nil); errors.As(err, &pe) {
		// The one transient compute fault is contained only if it lands on
		// a speculative lane. When another abort source (deadline, aux
		// panic, garbage state) squashes the selected input's lane before
		// it gets there, the input is first computed on the aux protocol's
		// sequential fallback, which is uncontained by contract. Only that
		// exact case is let through, and only as far as a rerun: the fault
		// is spent, so the same dependence must now satisfy every check below.
		ip, injected := pe.Value.(fault.InjectedPanic)
		otherAbortSource := timeout > 0 || auxRate > 0 || garbageRate > 0
		if proto != ProtocolAux || !otherAbortSource || !injected || ip.Site != fault.SiteCompute ||
			!bytes.Contains(pe.Stack, []byte("runSequential")) {
			t.Fatalf("fault escaped containment: %v\n%s", err, pe.Stack)
		}
		t.Logf("transient fault first landed on the fallback; rerunning with it spent")
		outs, final, st, err = d.RunChecked(inputs, walkState{}, opts)
	}
	if err != nil {
		t.Fatalf("fault escaped containment: %v", err)
	}
	checkOutputs(t, outs, wantOutputs(inputs))
	var wantSum float64
	for _, v := range inputs {
		wantSum += float64(v)
	}
	if final.V != wantSum {
		t.Fatalf("final state %v, want %v", final.V, wantSum)
	}
	if st.UsefulInvocations != int64(n) {
		t.Fatalf("UsefulInvocations %d, want %d", st.UsefulInvocations, n)
	}
	if st.SquashedInputs != st.FallbackInputs {
		t.Fatalf("squashed %d != fallback %d", st.SquashedInputs, st.FallbackInputs)
	}
	if st.Aborts > 1 {
		t.Fatalf("%d aborts in one run", st.Aborts)
	}
	if (st.PanickedGroups > 0 || st.TimedOutGroups > 0) && st.Aborts != 1 {
		t.Fatalf("failed groups (%d panicked, %d timed out) but %d aborts",
			st.PanickedGroups, st.TimedOutGroups, st.Aborts)
	}
}

// TestAccountingInvariantsWithPanics extends the PR-1 accounting property
// to runs with contained panics: over randomized option vectors with
// aux-panic and garbage injection, the conservation laws must still hold,
// with one relaxation — a group-0 failure makes the run fall back from the
// initial state, so the non-speculative commit share is 0 instead of the
// first group's size. The sample must actually contain panicked groups, or
// the property is vacuous.
func TestAccountingInvariantsWithPanics(t *testing.T) {
	r := rng.New(0xFA57)
	const cases = 300
	sawPanic, sawAbort, sawGroupZeroFailure := false, false, false
	for c := 0; c < cases; c++ {
		n := r.Intn(81)
		inputs := seqInputs(n)
		opts := Options{
			UseAux:    true,
			GroupSize: 1 + r.Intn(40),
			Window:    r.Intn(11),
			RedoMax:   r.Intn(5),
			Rollback:  r.Intn(7),
			Workers:   1 + r.Intn(6),
			Seed:      r.Uint64(),
		}
		in := fault.New(fault.Config{
			Seed: r.Uint64(), AuxPanicRate: 0.15, GarbageRate: 0.1,
		})
		tol := r.Range(0.05, 3.0)
		aux := fault.WrapAux(in, noiselessAuxFor(inputs),
			func(s walkState) walkState { return walkState{V: s.V - 1e12} })
		// Aux and garbage faults only hit successor groups; to exercise the
		// group-0 failure path (fallback from the initial state), some cases
		// arm a transient panic on the first input, whose first compute is
		// always on group 0's lane. Armed only when the run will actually
		// speculate — on a sequential run the panic would have no lane to be
		// contained on.
		compute := nondetCompute
		armGroupZero := n >= 2*opts.GroupSize+1 && r.Bool(0.3)
		if armGroupZero {
			var g0 atomic.Bool
			compute = func(rr *rng.Source, v int, s walkState) (int, walkState) {
				if v == 1 && g0.CompareAndSwap(false, true) {
					panic("group-0 fault")
				}
				return nondetCompute(rr, v, s)
			}
		}
		d := New(compute, aux, tolerantOps(tol))
		outs, _, st, err := d.RunChecked(inputs, walkState{}, opts)
		name := fmt.Sprintf("case %d (n=%d opts=%+v tol=%.2f g0=%v)", c, n, opts, tol, armGroupZero)
		if err != nil {
			t.Fatalf("%s: fault escaped containment: %v", name, err)
		}

		if len(outs) != n || st.Inputs != n {
			t.Fatalf("%s: outputs %d, Inputs %d, want %d", name, len(outs), st.Inputs, n)
		}
		checkOutputs(t, outs, wantOutputs(inputs))
		if st.UsefulInvocations != int64(n) {
			t.Fatalf("%s: UsefulInvocations %d, want %d", name, st.UsefulInvocations, n)
		}
		wasted := st.Invocations - st.UsefulInvocations
		if wasted < 0 {
			t.Fatalf("%s: negative wasted work %d", name, wasted)
		}
		rollback := opts.Rollback
		if rollback < 1 {
			rollback = 1
		}
		if max := int64(st.SquashedInputs) + int64(st.Redos*rollback); wasted > max {
			t.Fatalf("%s: wasted %d exceeds bound %d (%+v)", name, wasted, max, st)
		}
		if st.SquashedInputs != st.FallbackInputs {
			t.Fatalf("%s: squashed %d != fallback %d", name, st.SquashedInputs, st.FallbackInputs)
		}
		nonSpec := n - st.SpeculativeCommits - st.FallbackInputs
		if st.Groups > 1 {
			// With panic containment in play a group-0 failure falls back
			// from the initial state: the non-speculative share is either
			// the whole first group or nothing at all.
			if nonSpec != opts.GroupSize && nonSpec != 0 {
				t.Fatalf("%s: non-speculative commits %d, want %d or 0",
					name, nonSpec, opts.GroupSize)
			}
			if nonSpec == 0 {
				if st.SpeculativeCommits != 0 || st.FallbackInputs != n {
					t.Fatalf("%s: group-0 failure accounting: %+v", name, st)
				}
				sawGroupZeroFailure = true
			}
			// Attempts count even when aux panics; a group squashed before
			// its task started makes none.
			if st.AuxCalls > st.Groups-1 || st.AuxCalls < st.Matches || (st.Aborts == 0 && st.AuxCalls != st.Groups-1) {
				t.Fatalf("%s: aux calls %d, want %d (at least %d when aborting)",
					name, st.AuxCalls, st.Groups-1, st.Matches)
			}
		} else if nonSpec != n {
			t.Fatalf("%s: sequential run committed %d of %d non-speculatively", name, nonSpec, n)
		}
		if st.Aborts > 1 {
			t.Fatalf("%s: %d aborts in one run", name, st.Aborts)
		}
		if st.PanickedGroups > 0 && st.Aborts != 1 {
			t.Fatalf("%s: %d panicked groups but %d aborts", name, st.PanickedGroups, st.Aborts)
		}
		if st.Groups > 1 && st.Matches+st.Aborts > st.Groups-1 {
			t.Fatalf("%s: boundary outcomes %d exceed boundaries %d",
				name, st.Matches+st.Aborts, st.Groups-1)
		}
		if st.Aborts == 0 {
			if st.PanickedGroups != 0 || st.TimedOutGroups != 0 {
				t.Fatalf("%s: failed groups without an abort: %+v", name, st)
			}
			if st.Groups > 1 && st.Matches != st.Groups-1 {
				t.Fatalf("%s: no abort but only %d/%d boundaries matched",
					name, st.Matches, st.Groups-1)
			}
		}
		sawPanic = sawPanic || st.PanickedGroups > 0
		sawAbort = sawAbort || st.Aborts > 0
	}
	if !sawPanic || !sawAbort || !sawGroupZeroFailure {
		t.Fatalf("sample did not exercise the fault paths: panic=%v abort=%v group0=%v",
			sawPanic, sawAbort, sawGroupZeroFailure)
	}
}

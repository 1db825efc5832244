// Containment tests for the reservation-specific fault sites: the
// developer hooks ReserveOps adds (NumSlots, Footprint, Merge) must fail
// as safely as aux/compute panics do in the aux protocol — contained on
// the engine side, outputs still byte-identical to sequential via the
// fallback.
package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// runFaultyReserve runs the noisy slotted chain under reservations with
// the given ops and asserts the fallback preserved the sequential output
// and the run's accounts still reconcile through the fact table.
func runFaultyReserve(t *testing.T, ops core.ReserveOps[slotInput, []float64]) core.Stats {
	t.Helper()
	const k = 4
	inputs := slotInputs(40, k, 0xFA11)
	seqOuts, seqFinal, _ := core.New(noisySlotCompute, nil, slottedOps()).
		Run(inputs, make([]float64, k), core.Options{Seed: 7})
	ob := obs.NewObserver(5, 4096)
	outs, final, st, err := core.New(noisySlotCompute, nil, slottedOps()).WithReserve(ops).
		RunChecked(inputs, make([]float64, k), core.Options{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: 8, Workers: 4, Seed: 7, Obs: ob,
		})
	if err != nil {
		t.Fatalf("fault escaped containment: %v", err)
	}
	core.CheckFacts(t, "faulty reserve", ob, st)
	if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
		t.Fatal("fallback diverged from sequential")
	}
	return st
}

func TestReservationMergePanicFallsBack(t *testing.T) {
	ops := slottedReserve()
	calls := 0
	inner := ops.Merge
	ops.Merge = func(dst, src []float64, slots []int) []float64 {
		calls++
		if calls == 3 {
			panic("merge fault")
		}
		return inner(dst, src, slots)
	}
	st := runFaultyReserve(t, ops)
	if st.Aborts != 1 || st.PanickedGroups != 1 {
		t.Fatalf("merge panic not classified: %+v", st)
	}
	if st.SquashedInputs != st.FallbackInputs || st.FallbackInputs == 0 {
		t.Fatalf("fallback accounting off: %+v", st)
	}
}

func TestReservationFootprintViolationFallsBack(t *testing.T) {
	ops := slottedReserve()
	ops.Footprint = func(in slotInput, _ []float64) []int {
		// Input 6, in group 0: the one group whose rounds pay at these
		// computes' grain (a streak evaluates no footprint).
		if in.Val > 6 {
			return []int{999} // out of range: contract violation
		}
		return []int{in.Slot}
	}
	st := runFaultyReserve(t, ops)
	if st.Aborts != 1 || st.PanickedGroups != 1 {
		t.Fatalf("footprint violation not contained: %+v", st)
	}
}

func TestReservationNumSlotsPanicFallsBack(t *testing.T) {
	ops := slottedReserve()
	ops.NumSlots = func([]float64) int { panic("numslots fault") }
	st := runFaultyReserve(t, ops)
	if st.Aborts != 1 || st.PanickedGroups != 1 || st.FallbackInputs != 40 {
		t.Fatalf("NumSlots panic accounting off: %+v", st)
	}
	if st.UsefulInvocations != 40 {
		t.Fatalf("UsefulInvocations %d, want 40", st.UsefulInvocations)
	}
}

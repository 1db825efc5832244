package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestSlotOps pins the slice-of-slots constructor over its whole table:
// nil and non-nil cloneSlot, nil and non-nil sameSlot, single- and
// multi-slot footprints. A slot is itself a slice, so a shallow and a deep
// Clone are distinguishable; the compute replaces a slot instead of
// writing into it, which is valid under both.
func TestSlotOps(t *testing.T) {
	type cell struct {
		Slots []int
		Val   float64
	}
	const k = 4
	compute := func(r *rng.Source, in cell, s [][]float64) (float64, [][]float64) {
		out := r.Float64()
		for _, sl := range in.Slots {
			s[sl] = []float64{s[sl][0] + in.Val + out}
			out += s[sl][0]
		}
		return out, s
	}
	fresh := func() [][]float64 { return [][]float64{{1}, {2}, {3}, {4}} }
	footprints := map[string]func(i int) []int{
		"single": func(i int) []int { return []int{i % k} },
		"multi":  func(i int) []int { return []int{i % k, (i + 1 + i%3) % k} },
	}
	for _, cloneSlot := range []func([]float64) []float64{nil, slices.Clone[[]float64]} {
		for _, sameSlot := range []func(a, b []float64) bool{nil, slices.Equal[[]float64]} {
			for shape, slotsOf := range footprints {
				name := fmt.Sprintf("clone=%t same=%t %s", cloneSlot != nil, sameSlot != nil, shape)
				ops, reserve := core.SlotOps(func(in cell) []int { return slices.Clone(in.Slots) }, cloneSlot, sameSlot)

				s := fresh()
				cp := ops.Clone(s)
				cp[0] = []float64{9}
				if cloneSlot != nil {
					cp[1][0] = 9
				}
				if !reflect.DeepEqual(s, fresh()) {
					t.Fatalf("%s: Clone aliases its argument: %v", name, s)
				}

				src := [][]float64{{10}, {20}, {30}, {40}}
				merged := reserve.Merge(ops.Clone(s), src, []int{1, 3})
				if want := [][]float64{{1}, {20}, {3}, {40}}; !reflect.DeepEqual(merged, want) {
					t.Fatalf("%s: Merge = %v, want %v", name, merged, want)
				}
				if !reflect.DeepEqual(src, [][]float64{{10}, {20}, {30}, {40}}) {
					t.Fatalf("%s: Merge modified src: %v", name, src)
				}
				if n := reserve.NumSlots(s); n != k {
					t.Fatalf("%s: NumSlots = %d, want %d", name, n, k)
				}
				if (reserve.Touched == nil) != (sameSlot == nil) {
					t.Fatalf("%s: Touched set = %t", name, reserve.Touched != nil)
				}
				if sameSlot != nil {
					if got := reserve.Touched(s, merged); !slices.Equal(got, []int{1, 3}) {
						t.Fatalf("%s: Touched = %v, want [1 3]", name, got)
					}
				}

				inputs := make([]cell, 48)
				for i := range inputs {
					inputs[i] = cell{Slots: slotsOf(i), Val: float64(i) + 0.5}
				}
				seqOuts, seqFinal, _ := core.New(compute, nil, ops).Run(inputs, fresh(), core.Options{Seed: 41})
				outs, final, st := core.New(compute, nil, ops).WithReserve(reserve).Run(inputs, fresh(), core.Options{
					UseAux: true, Protocol: core.ProtocolReservations, FootprintCheck: true,
					GroupSize: 8, Workers: 4, Seed: 41,
				})
				if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
					t.Fatalf("%s: reservations diverged from sequential:\n got %v\nwant %v", name, outs, seqOuts)
				}
				if st.Rounds == 0 || st.Aborts != 0 || st.FootprintViolations != 0 {
					t.Fatalf("%s: not a clean reservations run: %+v", name, st)
				}
			}
		}
	}
}

// countUp returns the inputs 0..n-1.
func countUp(n int) []int {
	ins := make([]int, n)
	for i := range ins {
		ins[i] = i
	}
	return ins
}

// inPlaceCompute adds the input's value into the first element of each of
// its slots — through the slot's own backing array, which a winner may do
// to the slots it reserved — and returns the sum of what it left there.
func inPlaceCompute(slotsOf func(in int) []int) core.Compute[int, [][]float64, float64] {
	return func(_ *rng.Source, in int, s [][]float64) (float64, [][]float64) {
		out := 0.0
		for _, sl := range slotsOf(in) {
			s[sl][0] += float64(in) + 0.5
			out += s[sl][0]
		}
		return out, s
	}
}

// TestWinnersCloneOnlyTheirFootprint pins the footprint-only clone: over a
// reservations run every slot is deep-copied once for the run's private
// state and once more per input, by the winner that reserved it — not once
// per slot per winner and again per commit. Under a controller every group
// runs rounds; free, a streak's one whole-state clone serves all its inputs,
// so the same bound holds with room to spare.
func TestWinnersCloneOnlyTheirFootprint(t *testing.T) {
	const n, k, g = 64, 4, 8
	slotsOf := func(in int) []int { return []int{in % k} }
	fresh := func() [][]float64 { return [][]float64{{1}, {2}, {3}, {4}} }
	var clones atomic.Int64
	cloneSlot := func(s []float64) []float64 {
		clones.Add(1)
		return slices.Clone(s)
	}
	ops, reserve := core.SlotOps(slotsOf, cloneSlot, nil)
	d := core.New(inPlaceCompute(slotsOf), nil, ops).WithReserve(reserve)
	inputs := countUp(n)
	seqOuts, seqFinal, _ := d.Run(inputs, fresh(), core.Options{Seed: 3})
	for leg, ctl := range resvLegs(3) {
		clones.Store(0)
		outs, final, st := d.Run(inputs, fresh(), core.Options{
			UseAux: true, Protocol: core.ProtocolReservations, GroupSize: g, Workers: 2, Seed: 3, Sched: ctl,
		})
		if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
			t.Fatalf("%s: reservations diverged from sequential:\n got %v\nwant %v", leg, outs, seqOuts)
		}
		// Two rounds of four winners in every group that ran rounds.
		if st.Rounds != (n-st.ConventionalInputs)/k || st.Aborts != 0 || ctl != nil && st.ConventionalInputs != 0 {
			t.Fatalf("%s: not a clean reservations run: %+v", leg, st)
		}
		if got := clones.Load(); got > n+k {
			t.Fatalf("%s: %d slot clones for %d inputs over %d slots, want at most %d", leg, got, n, k, n+k)
		}
	}
}

// TestFootprintOracleCatchesInPlaceWrite is the footprint contract's
// checked half: with footprint-only clones a compute that writes through
// a slot it never declared would write committed state, so under
// FootprintCheck winners run on whole-state clones — the lie is caught
// before commit, nothing of it reaches the committed state (the race
// detector watches the two winners that share the slot), and the fallback
// returns the sequential answer.
func TestFootprintOracleCatchesInPlaceWrite(t *testing.T) {
	const n, k = 32, 4
	declared := func(in int) []int { return []int{in % k} }
	touched := func(in int) []int {
		if in == 13 { // also writes its neighbour's slot, in place
			return []int{in % k, (in + 1) % k}
		}
		return declared(in)
	}
	fresh := func() [][]float64 { return [][]float64{{1}, {2}, {3}, {4}} }
	ops, reserve := core.SlotOps(declared, slices.Clone[[]float64], slices.Equal[[]float64])
	d := core.New(inPlaceCompute(touched), nil, ops).WithReserve(reserve)
	inputs := countUp(n)
	seqOuts, seqFinal, _ := d.Run(inputs, fresh(), core.Options{Seed: 5})
	outs, final, st := d.Run(inputs, fresh(), core.Options{
		UseAux: true, Protocol: core.ProtocolReservations, FootprintCheck: true,
		GroupSize: 8, Workers: 2, Seed: 5,
	})
	if st.FootprintViolations == 0 || st.Aborts != 1 {
		t.Fatalf("in-place write outside the footprint not caught: %+v", st)
	}
	if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
		t.Fatalf("fallback diverged from sequential:\n got %v %v\nwant %v %v", outs, final, seqOuts, seqFinal)
	}
}

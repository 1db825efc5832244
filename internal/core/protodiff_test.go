// Cross-protocol differential suite: the deterministic-reservations
// protocol must be observationally invisible. For every registered
// workload and a grid of engine shapes it races the two protocols:
//
//   - reservations vs sequential: byte-identical outputs (the protocol's
//     construction guarantee — pre-split per-input sources, ordered
//     commits);
//   - aux vs aux: byte-identical across repeated runs (committed outputs
//     are timing-independent even for rng-consuming workloads);
//   - the full three-way triangle (sequential ≡ aux ≡ reservations) on a
//     synthetic slotted dependence where the aux leg is exact by
//     construction (deterministic compute, perfect aux, RedoMax=0).
//
// This file is an external test package so it can import the workload
// registry (registry → workload → core would cycle from package core).
package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

// slotInput is one input of the synthetic slotted dependence: it touches
// exactly one slot of the state vector.
type slotInput struct {
	Slot int
	Val  float64
}

// slotted is the synthetic state vector's slice-of-slots contract under
// the given footprint. MatchAny is exact, so the aux protocol's validation
// accepts iff the speculative state is bit-equal.
func slotted[I any](fp func(I) []int) (core.StateOps[[]float64], core.ReserveOps[I, []float64]) {
	ops, reserve := core.SlotOps[I, float64](fp, nil, nil)
	ops.MatchAny = func(spec []float64, originals [][]float64) bool {
		for _, o := range originals {
			if reflect.DeepEqual(spec, o) {
				return true
			}
		}
		return false
	}
	return ops, reserve
}

func slotOf(in slotInput) []int { return []int{in.Slot} }

func slottedOps() core.StateOps[[]float64] {
	ops, _ := slotted(slotOf)
	return ops
}

// slottedReserve exposes the vector's natural decomposition.
func slottedReserve() core.ReserveOps[slotInput, []float64] {
	_, reserve := slotted(slotOf)
	return reserve
}

// slotInputs deals n inputs across k slots with a deterministic but
// non-uniform pattern, so rounds see both conflicts and disjoint commits.
func slotInputs(n, k int, seed uint64) []slotInput {
	r := rng.New(seed ^ 0x51077ED)
	ins := make([]slotInput, n)
	for i := range ins {
		slot := int(r.Uint64() % uint64(k))
		if i%3 == 0 {
			slot = i % k // periodic runs of disjoint slots
		}
		// Unique values keep every window distinct, so the exact aux can
		// identify group starts unambiguously; conflicts come from slots.
		ins[i] = slotInput{Slot: slot, Val: float64(i) + 0.25}
	}
	return ins
}

// detSlotCompute is deterministic: no rng consumption, so the exact aux
// closes the aux-protocol leg of the triangle.
func detSlotCompute(_ *rng.Source, in slotInput, s []float64) (float64, []float64) {
	s[in.Slot] += in.Val
	return s[in.Slot], s
}

// exactSlotAux replays the deterministic chain up to the group start,
// identified by matching the recent window (the closure cheat of
// exactAuxFor, generalized to the slotted state).
func exactSlotAux(inputs []slotInput, k int) core.Aux[slotInput, []float64] {
	prefixes := make([][]float64, len(inputs)+1)
	prefixes[0] = make([]float64, k)
	for i, in := range inputs {
		next := make([]float64, k)
		copy(next, prefixes[i])
		next[in.Slot] += in.Val
		prefixes[i+1] = next
	}
	return func(_ *rng.Source, init []float64, recent []slotInput) []float64 {
		for start := len(recent); start <= len(inputs); start++ {
			match := true
			for i, in := range inputs[start-len(recent) : start] {
				if recent[i] != in {
					match = false
					break
				}
			}
			if match {
				spec := make([]float64, k)
				for sl := range spec {
					spec[sl] = init[sl] + prefixes[start][sl]
				}
				return spec
			}
		}
		panic("exactSlotAux: window not found")
	}
}

// noisySlotCompute consumes the input's random stream, the workload-shaped
// case: reservations must still match sequential bit-for-bit because both
// derive input i's source as the i-th split of the run root.
func noisySlotCompute(r *rng.Source, in slotInput, s []float64) (float64, []float64) {
	s[in.Slot] += in.Val + (r.Float64()-0.5)*1e-3
	return s[in.Slot], s
}

// resvLegs are the two ways the differential tests pin a reservations run.
// Under a controller every wave fans out, so every group runs rounds and the
// round structure is a pure function of the inputs: the leg that pins the
// protocol. Free, a group whose waves were not worth fanning out is followed
// by a conventional streak: the leg that pins the run as users see it.
func resvLegs(seed uint64) map[string]sched.Controller {
	return map[string]sched.Controller{"controlled": sched.NewRandom(seed), "free": nil}
}

// protoGrid is the engine-shape grid the differential tests sweep.
var protoGrid = []struct {
	g, win, workers int
}{
	{2, 1, 1},
	{4, 2, 2},
	{8, 2, 4},
	{16, 4, 8},
}

// TestProtocolTriangleSynthetic closes the three-way triangle on the
// slotted dependence: sequential, perfect-aux speculation and
// reservations all commit bit-identical outputs and final states.
func TestProtocolTriangleSynthetic(t *testing.T) {
	const k = 8
	inputs := slotInputs(96, k, 0xD1FF)
	for s := 0; s < protodiffSeeds; s++ {
		seed := uint64(0xA5EED + s*7919)
		for _, cfg := range protoGrid {
			name := fmt.Sprintf("seed=%#x g=%d win=%d w=%d", seed, cfg.g, cfg.win, cfg.workers)

			seq := core.New(detSlotCompute, nil, slottedOps())
			seqOuts, seqFinal, seqSt := seq.Run(inputs, make([]float64, k), core.Options{Seed: seed})
			if seqSt.Groups != 1 {
				t.Fatalf("%s: baseline not sequential", name)
			}

			aux := core.New(detSlotCompute, exactSlotAux(inputs, k), slottedOps())
			auxOuts, auxFinal, auxSt := aux.Run(inputs, make([]float64, k), core.Options{
				UseAux: true, GroupSize: cfg.g, Window: cfg.win, RedoMax: 0,
				Workers: cfg.workers, Seed: seed,
			})
			if auxSt.Aborts != 0 {
				t.Fatalf("%s: perfect aux aborted (%+v)", name, auxSt)
			}
			if !reflect.DeepEqual(auxOuts, seqOuts) || !reflect.DeepEqual(auxFinal, seqFinal) {
				t.Fatalf("%s: aux diverged from sequential", name)
			}

			for leg, ctl := range resvLegs(seed) {
				name := name + " " + leg
				resv := core.New(detSlotCompute, nil, slottedOps()).WithReserve(slottedReserve())
				resvOuts, resvFinal, resvSt := resv.Run(inputs, make([]float64, k), core.Options{
					UseAux: true, Protocol: core.ProtocolReservations,
					GroupSize: cfg.g, Workers: cfg.workers, Seed: seed, Sched: ctl,
				})
				if !reflect.DeepEqual(resvOuts, seqOuts) || !reflect.DeepEqual(resvFinal, seqFinal) {
					t.Fatalf("%s: reservations diverged from sequential:\n got %v\nwant %v",
						name, resvOuts, seqOuts)
				}
				if ctl != nil && (resvSt.Rounds < resvSt.Groups || resvSt.ConventionalInputs != 0) {
					t.Fatalf("%s: %d rounds for %d groups, %d conventional inputs — protocol did not run",
						name, resvSt.Rounds, resvSt.Groups, resvSt.ConventionalInputs)
				}
				// One chunk per wave: group 0 runs rounds, group 1 is the
				// first streak.
				if ctl == nil && cfg.workers == 1 && (resvSt.Rounds == 0 || resvSt.ConventionalInputs < cfg.g) {
					t.Fatalf("%s: %d rounds, %d conventional inputs — want rounds and streaks",
						name, resvSt.Rounds, resvSt.ConventionalInputs)
				}
				if resvSt.Aborts != 0 || resvSt.FallbackInputs != 0 {
					t.Fatalf("%s: clean reservations run aborted (%+v)", name, resvSt)
				}
				if resvSt.UsefulInvocations != int64(len(inputs)) {
					t.Fatalf("%s: useful invocations %d, want %d",
						name, resvSt.UsefulInvocations, len(inputs))
				}
			}
		}
	}
}

// TestReservationsMatchSequentialNoisy repeats the reservations leg with
// the rng-consuming compute: the protocol's pre-split source discipline
// must keep outputs bit-identical to sequential even though attempts can
// lose rounds and carry forward.
func TestReservationsMatchSequentialNoisy(t *testing.T) {
	const k = 5
	inputs := slotInputs(120, k, 0xB0B)
	for s := 0; s < protodiffSeeds; s++ {
		seed := uint64(0xFACE + s*104729)
		for _, cfg := range protoGrid {
			name := fmt.Sprintf("seed=%#x g=%d w=%d", seed, cfg.g, cfg.workers)
			seq := core.New(noisySlotCompute, nil, slottedOps())
			seqOuts, seqFinal, _ := seq.Run(inputs, make([]float64, k), core.Options{Seed: seed})

			for leg, ctl := range resvLegs(seed) {
				name := name + " " + leg
				resv := core.New(noisySlotCompute, nil, slottedOps()).WithReserve(slottedReserve())
				resvOuts, resvFinal, st := resv.Run(inputs, make([]float64, k), core.Options{
					UseAux: true, Protocol: core.ProtocolReservations,
					GroupSize: cfg.g, Workers: cfg.workers, Seed: seed, Sched: ctl,
				})
				if !reflect.DeepEqual(resvOuts, seqOuts) || !reflect.DeepEqual(resvFinal, seqFinal) {
					t.Fatalf("%s: reservations diverged from sequential", name)
				}
				if ctl != nil && st.ReservationConflicts == 0 {
					t.Fatalf("%s: no conflicts — the input pattern should collide", name)
				}
				// A streak hands each input its pre-split source too.
				if ctl == nil && cfg.workers == 1 && st.ConventionalInputs < cfg.g {
					t.Fatalf("%s: %d conventional inputs, want a streak", name, st.ConventionalInputs)
				}
			}
		}
	}
}

// TestWholeStateReservations exercises the built-in single-slot fallback
// for a dependence with no ReserveOps: rounds degenerate to ordered
// commits and outputs still match sequential exactly.
func TestWholeStateReservations(t *testing.T) {
	const k = 4
	inputs := slotInputs(48, k, 0xC0FFEE)
	seq := core.New(noisySlotCompute, nil, slottedOps())
	seqOuts, seqFinal, _ := seq.Run(inputs, make([]float64, k), core.Options{Seed: 99})

	// One commit per round: under a controller every group of g inputs needs
	// exactly g rounds. Free, a round of one winner never fans out, so the
	// shape is fixed too: of the six groups 0, 2 and 5 run rounds and 1, 3
	// and 4 are the streaks between them.
	for leg, ctl := range resvLegs(99) {
		resv := core.New(noisySlotCompute, nil, slottedOps())
		outs, final, st := resv.Run(inputs, make([]float64, k), core.Options{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: 8, Workers: 4, Seed: 99, Sched: ctl,
		})
		if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
			t.Fatalf("%s: whole-state reservations diverged from sequential", leg)
		}
		wantRounds, wantConventional := len(inputs), 0
		if ctl == nil {
			wantRounds, wantConventional = 24, 24
		}
		if st.Rounds != wantRounds || st.ConventionalInputs != wantConventional || st.SpeculativeCommits != 0 {
			t.Fatalf("%s: rounds %d, conventional inputs %d, want %d and %d (one commit per round)",
				leg, st.Rounds, st.ConventionalInputs, wantRounds, wantConventional)
		}
	}
}

// TestProtocolDifferentialWorkloads sweeps every registered STATS target:
// under ProtocolReservations the output must equal the same-shape
// sequential run exactly, and the aux protocol must be run-to-run
// deterministic at the same point (committed outputs are timing-free).
func TestProtocolDifferentialWorkloads(t *testing.T) {
	// The slotted formulations: their reservation runs must show real
	// multi-slot overlap (several commits per round), and the footprint
	// oracle — enabled on every reservations leg — must stay silent on
	// their declared (sound) footprints.
	slotted := map[string]bool{
		"swaptions": true, "streamcluster": true,
		"fluidanimate": true, "streamclassifier": true,
	}
	for _, w := range registry.Targets() {
		w := w
		t.Run(w.Desc().Name, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < protodiffWorkloadSeeds; s++ {
				seed := uint64(0x57A75 + s*2654435761)
				for _, cfg := range protodiffWorkloadGrid {
					name := fmt.Sprintf("seed=%#x g=%d w=%d", seed, cfg.g, cfg.workers)

					resvOpts := workload.SpecOptions{
						UseAux: true, Protocol: core.ProtocolReservations,
						GroupSize: cfg.g, Window: cfg.win, Workers: cfg.workers,
						FootprintCheck: true,
					}
					seqOpts := resvOpts
					seqOpts.UseAux = false

					got, st := w.RunSTATS(seed, workload.SmallSize, resvOpts)
					ref, _ := w.RunSTATS(seed, workload.SmallSize, seqOpts)
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: reservations diverged from sequential (distance %g)",
							name, got.Distance(ref))
					}
					if st.Aborts != 0 {
						t.Fatalf("%s: clean run aborted (%+v)", name, st)
					}
					if st.FootprintViolations != 0 {
						t.Fatalf("%s: oracle flagged a declared footprint (%+v)", name, st)
					}
					if slotted[w.Desc().Name] {
						if st.Rounds == 0 || st.SpeculativeCommits == 0 {
							t.Fatalf("%s: slotted workload showed no speculative rounds (%+v)", name, st)
						}
						if cfg.g >= 4 && float64(st.UsefulInvocations)/float64(st.Rounds) <= 1 {
							t.Fatalf("%s: slots are not overlapping commits (%+v)", name, st)
						}
					}

					auxOpts := workload.SpecOptions{
						UseAux: true, GroupSize: cfg.g, Window: cfg.win,
						RedoMax: 2, Rollback: 2, Workers: cfg.workers,
					}
					a1, _ := w.RunSTATS(seed, workload.SmallSize, auxOpts)
					a2, _ := w.RunSTATS(seed, workload.SmallSize, auxOpts)
					if !reflect.DeepEqual(a1, a2) {
						t.Fatalf("%s: aux protocol nondeterministic across identical runs", name)
					}
				}
			}
		})
	}
}

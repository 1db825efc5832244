// Tests of the reservations protocol's conventional streaks (runStreak): the
// groups that follow one whose waves were not worth fanning out run in index
// order on one clone of the committed state. With one worker every wave has
// one chunk, so the shape is fixed (oneChunkStreaks) and a failure can be
// placed inside a streak.
package core_test

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// TestStreakFailureSquashesTheStreak fails a run inside its second streak
// (groups 3 and 4 of twelve), in group 4 — after group 3 has streamed — by a
// compute that writes its slot in place and then panics once, and by one that
// then sleeps past the group deadline once. Nothing of a streak is committed
// before it completes, so the whole streak is squashed with everything after
// it and recomputed from the untouched pre-image: outputs and final state are
// the sequential run's, every index is emitted exactly once, in order, and
// only the first streak's group counts as conventional.
func TestStreakFailureSquashesTheStreak(t *testing.T) {
	const n, k, g = 96, 4, 8
	const streakStart, failAt = 3 * g, 4*g + 3
	slotsOf := func(in int) []int { return []int{in % k} }
	fresh := func() [][]float64 { return [][]float64{{1}, {2}, {3}, {4}} }
	ops, reserve := core.SlotOps(slotsOf, slices.Clone[[]float64], nil)
	inputs := countUp(n)
	seqOuts, seqFinal, _ := core.New(inPlaceCompute(slotsOf), nil, ops).Run(inputs, fresh(), core.Options{Seed: 17})

	for _, c := range []struct {
		name    string
		timeout time.Duration
		fail    func()
	}{
		{"panic", 0, func() { panic("streak boom") }},
		{"deadline", 100 * time.Millisecond, func() { time.Sleep(250 * time.Millisecond) }},
	} {
		var fired atomic.Bool
		inPlace := inPlaceCompute(slotsOf)
		compute := func(r *rng.Source, in int, s [][]float64) (float64, [][]float64) {
			out, s := inPlace(r, in, s)
			if in == failAt && fired.CompareAndSwap(false, true) {
				c.fail()
			}
			return out, s
		}
		ob := obs.NewObserver(2, 4096)
		var emitted []int
		outs, final, st := core.New(compute, nil, ops).WithReserve(reserve).RunStream(inputs, fresh(), core.Options{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: g, Workers: 1, Seed: 17, Obs: ob, GroupTimeout: c.timeout,
		}, func(i int, out float64) {
			if out != seqOuts[i] {
				t.Errorf("%s: emitted output %d = %v, want %v", c.name, i, out, seqOuts[i])
			}
			emitted = append(emitted, i)
		})
		if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
			t.Fatalf("%s: run diverged from sequential:\n got %v %v\nwant %v %v", c.name, outs, final, seqOuts, seqFinal)
		}
		if !slices.Equal(emitted, inputs) {
			t.Fatalf("%s: emitted indexes %v, want each of 0..%d once, in order", c.name, emitted, n-1)
		}
		core.CheckFacts(t, c.name, ob, st)
		panicked, timedOut := 1, 0
		if c.timeout > 0 {
			panicked, timedOut = 0, 1
		}
		// A squash counts the groups never started too, as it always has:
		// the streak's sixteen inputs up to the failing group's end, and
		// the fifty-six after it.
		if st.PanickedGroups != panicked || st.TimedOutGroups != timedOut || st.Aborts != 1 ||
			st.SquashedInputs != n-streakStart || st.FallbackInputs != n-streakStart ||
			st.ConventionalInputs != g || st.Rounds != 4 {
			t.Fatalf("%s: failure accounting off: %+v", c.name, st)
		}
		if c.timeout > 0 {
			continue
		}
		if len(st.Panics) != 1 || st.Panics[0].Value != "streak boom" ||
			!strings.Contains(string(st.Panics[0].Stack), t.Name()+".func") {
			t.Fatalf("%s: Stats.Panics = %v, want the streak's panic with its stack", c.name, st.Panics)
		}
	}
}

// TestFineGrainReservationsGoConventional: with computes far below a
// fan-out's cost a two-worker run decides by its own measurements which
// groups run as rounds and which as conventional streaks; whichever way they
// come out on this host (the rule itself is pinned on fixed readings by
// TestFanOutPays) the run equals the sequential one and computes every input
// once. The same run under the footprint oracle (every compute is checked)
// or a controller (every wave fans out) has no streaks.
func TestFineGrainReservationsGoConventional(t *testing.T) {
	const n, k = 1024, 4
	compute := func(_ *rng.Source, in int, s []float64) (float64, []float64) {
		s[in%k] += float64(in) + 0.5
		return s[in%k], s
	}
	ops, reserve := slotted(func(in int) []int { return []int{in % k} })
	d := core.New(compute, nil, ops).WithReserve(reserve)
	inputs := countUp(n)
	seqOuts, seqFinal, _ := d.Run(inputs, make([]float64, k), core.Options{Seed: 23})
	for _, c := range []struct {
		name   string
		oracle bool
		ctl    sched.Controller
	}{
		{"free", false, nil},
		{"footprint oracle", true, nil},
		{"controller", false, sched.NewRandom(23)},
	} {
		outs, final, st := d.Run(inputs, make([]float64, k), core.Options{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: 8, Workers: 2, Seed: 23, FootprintCheck: c.oracle, Sched: c.ctl,
		})
		if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
			t.Fatalf("%s: run diverged from sequential", c.name)
		}
		if st.Aborts != 0 || st.UsefulInvocations != int64(st.Inputs) {
			t.Fatalf("%s: not every input computed exactly once: %+v", c.name, st)
		}
		if (c.oracle || c.ctl != nil) && st.ConventionalInputs != 0 {
			t.Fatalf("%s: %d of %d inputs conventional: %+v", c.name, st.ConventionalInputs, n, st)
		}
	}
}

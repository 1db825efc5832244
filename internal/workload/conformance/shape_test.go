package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/racemode"
	"repro/internal/workload/registry"
)

// TestReservationsShapeRepeats runs the pinned reservations cells — the
// benchmark's resv cases — at two lanes, several calls per seed, and holds
// every count the fan-out rule decides to one value per seed. The rule prices
// a wave's overlapped winners at the run's least time per compute against a
// constant, so a run's shape is a function of the seed, the options and the
// host's compute grain; when the rule measured its own fan-out cost, the
// stream programs ran a different number of rounds on nearly every call.
//
// Under -race the stream kernels compute several times slower: their grain,
// 9–50 µs on a 2-CPU host, sits within 2× of the fan-out price (30 µs), so
// which of their rounds pay is the clock's call again. There only swaptions'
// shape (a grain over 250 µs) must repeat, and of the stream programs' only
// the counts no ruling moves: invocations, useful invocations and fallback.
func TestReservationsShapeRepeats(t *testing.T) {
	const seeds, calls = 4, 3
	for _, c := range pinned() {
		if c.opts.Protocol != core.ProtocolReservations {
			continue
		}
		whole := !racemode.Enabled || c.program == "swaptions"
		w, err := registry.ByName(c.program)
		if err != nil {
			t.Fatal(err)
		}
		opts := c.opts
		opts.Workers = 2
		for seed := uint64(1); seed <= seeds; seed++ {
			var first [8]int64
			for call := range calls {
				_, st := w.RunSTATS(seed, c.size, opts)
				got := [8]int64{int64(st.Rounds), int64(st.ConventionalInputs), int64(st.ReservationConflicts), int64(st.SpeculativeCommits),
					st.Invocations, st.UsefulInvocations, int64(st.FallbackInputs), st.Steals + st.LocalHits}
				if !whole {
					got = [8]int64{4: got[4], 5: got[5], 6: got[6]}
				}
				if call == 0 {
					first = got
				} else if got != first {
					t.Errorf("%s/%d seed %d: call %d ran %v, call 0 %v (rounds, conventional, conflicts, speculative commits, invocations, useful, fallback, pool tasks)",
						c.program, c.size, seed, call, got, first)
					break
				}
			}
		}
	}
}

package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Panic-fidelity regression tests: every contained user-code panic must
// ride out of the run in Stats.Panics with its original value and a stack
// that still names the panicking function. Every containment site of both
// protocols funnels through contain (frame.go); each test below drives one
// site through the shared scenario runner. They stay separate top-level
// tests (not one table) so the seven names that predate the shared runner
// keep resolving under `go test -run` and in earlier CHANGES.md entries.

// panicSite is one containment site's scenario: a dependence whose user
// code panics with want at that site, and the options that reach it.
type panicSite struct {
	d      *Dependence[int, walkState, int]
	inputs []int
	opts   Options
	want   string
}

// check runs the scenario and asserts the run still returns the
// sequential outputs, that its accounts reconcile through the fact table
// on this failure path too, and that some Stats.Panics entry carries the
// value with a stack naming the panicking function — a closure of the
// calling test, so its symbol contains the test's name.
func (ps panicSite) check(t *testing.T) {
	t.Helper()
	ps.opts.Obs = obs.NewObserver(ps.opts.Workers+1, 1024)
	outs, _, st := ps.d.Run(ps.inputs, walkState{}, ps.opts)
	checkOutputs(t, outs, wantOutputs(ps.inputs))
	checkFacts(t, ps.want, ps.opts.Obs, st)
	if len(st.Panics) == 0 {
		t.Fatalf("Stats.Panics is empty, want a record for %q", ps.want)
	}
	for _, pe := range st.Panics {
		if pe.Value != ps.want {
			continue
		}
		if !strings.Contains(string(pe.Stack), t.Name()+".func") {
			t.Fatalf("panic %q lost its origin stack:\n%s", ps.want, pe.Stack)
		}
		return
	}
	t.Fatalf("no Stats.Panics entry has value %q (got %d records, first: %v)",
		ps.want, len(st.Panics), st.Panics[0].Value)
}

// auxSite and resvSite are the two option shapes the scenarios share.
func auxSite(d *Dependence[int, walkState, int], seed uint64, want string) panicSite {
	return panicSite{d: d, inputs: seqInputs(12), want: want, opts: Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: seed,
	}}
}

func resvSite(d *Dependence[int, walkState, int], seed uint64, want string) panicSite {
	return panicSite{d: d, inputs: seqInputs(16), want: want, opts: Options{
		UseAux: true, Protocol: ProtocolReservations, GroupSize: 4, Workers: 4, Seed: seed,
	}}
}

func TestPanicFidelityAux(t *testing.T) {
	aux := func(_ *rng.Source, init walkState, recent []int) walkState {
		panic("aux boom")
	}
	auxSite(New(deterministicCompute, aux, walkOps()), 1, "aux boom").check(t)
}

func TestPanicFidelitySpeculativeCompute(t *testing.T) {
	var fired atomic.Bool
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 8 && fired.CompareAndSwap(false, true) {
			panic("compute boom")
		}
		return deterministicCompute(r, in, s)
	}
	auxSite(New(compute, exactAuxFor(seqInputs(12)), walkOps()), 2, "compute boom").check(t)
}

func TestPanicFidelityMatchAny(t *testing.T) {
	ops := walkOps()
	ops.MatchAny = func(walkState, []walkState) bool { panic("match boom") }
	auxSite(New(deterministicCompute, exactAuxFor(seqInputs(12)), ops), 3, "match boom").check(t)
}

func TestPanicFidelityFingerprint(t *testing.T) {
	ops := walkOps()
	ops.Fingerprint = func(walkState) uint64 { panic("fingerprint boom") }
	auxSite(New(deterministicCompute, exactAuxFor(seqInputs(12)), ops), 4, "fingerprint boom").check(t)
}

// TestPanicFidelityRedo panics inside a boundary's re-execution: the aux
// state never matches, so boundary 1 re-runs group 0's last input — the
// second time compute sees input 3.
func TestPanicFidelityRedo(t *testing.T) {
	var seen atomic.Int32
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 3 && seen.Add(1) == 2 {
			panic("redo boom")
		}
		return deterministicCompute(r, in, s)
	}
	garbage := func(*rng.Source, walkState, []int) walkState { return walkState{V: -1} }
	ps := auxSite(New(compute, garbage, walkOps()), 8, "redo boom")
	ps.opts.RedoMax, ps.opts.Rollback = 1, 1
	ps.check(t)
	if seen.Load() != 2 {
		t.Fatalf("input 3 computed %d times, want first execution + one redo", seen.Load())
	}
}

// The whole-state dependence of the reservations scenarios commits one
// winner per round, so no group after the first pays for rounds and the
// run's shape is fixed: of the four groups of four, 0 runs rounds, 1 is a
// conventional streak and 2–3 the next. Input 2 panics in a wave, input 5 in
// a streak.
func TestPanicFidelityReservationsCompute(t *testing.T) {
	var fired atomic.Bool
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 2 && fired.CompareAndSwap(false, true) {
			panic("resv compute boom")
		}
		return deterministicCompute(r, in, s)
	}
	resvSite(New(compute, nil, walkOps()), 5, "resv compute boom").check(t)
}

func TestPanicFidelityReservationsStreak(t *testing.T) {
	var fired atomic.Bool
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 5 && fired.CompareAndSwap(false, true) {
			panic("resv streak boom")
		}
		return deterministicCompute(r, in, s)
	}
	resvSite(New(compute, nil, walkOps()), 11, "resv streak boom").check(t)
}

// TestPanicFidelityReservationsFallback panics on the fallback's contained
// first attempt: input 5's streak panic squashes group 1 into the sequential
// fallback, where input 9 — never computed before, groups run in order —
// panics once and is retried.
func TestPanicFidelityReservationsFallback(t *testing.T) {
	var streak, fallback atomic.Bool
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 5 && streak.CompareAndSwap(false, true) {
			panic("resv streak boom")
		}
		if in == 9 && fallback.CompareAndSwap(false, true) {
			panic("resv fallback boom")
		}
		return deterministicCompute(r, in, s)
	}
	resvSite(New(compute, nil, walkOps()), 9, "resv fallback boom").check(t)
}

func TestPanicFidelityReservationsNumSlots(t *testing.T) {
	d := New(deterministicCompute, nil, walkOps()).WithReserve(ReserveOps[int, walkState]{
		NumSlots:  func(walkState) int { panic("numslots boom") },
		Footprint: func(int, walkState) []int { return []int{0} },
		Merge:     func(dst, src walkState, _ []int) walkState { return src },
	})
	resvSite(d, 6, "numslots boom").check(t)
}

func TestPanicFidelityReservationsFootprint(t *testing.T) {
	var evals atomic.Int32
	d := New(deterministicCompute, nil, walkOps()).WithReserve(ReserveOps[int, walkState]{
		NumSlots: func(walkState) int { return 1 },
		Footprint: func(in int, _ walkState) []int {
			// Group 0, the one group that runs rounds (a streak evaluates
			// no footprint), in its second round: after input 0 committed.
			if in == 3 && evals.Add(1) == 2 {
				panic("footprint boom")
			}
			return []int{0}
		},
		Merge: func(dst, src walkState, _ []int) walkState { return src },
	})
	resvSite(d, 10, "footprint boom").check(t)
}

func TestPanicFidelityReservationsMerge(t *testing.T) {
	var fired atomic.Bool
	d := New(deterministicCompute, nil, walkOps()).WithReserve(ReserveOps[int, walkState]{
		NumSlots:  func(walkState) int { return 1 },
		Footprint: func(int, walkState) []int { return []int{0} },
		Merge: func(dst, src walkState, _ []int) walkState {
			if fired.CompareAndSwap(false, true) {
				panic("merge boom")
			}
			return src
		},
	})
	resvSite(d, 7, "merge boom").check(t)
}

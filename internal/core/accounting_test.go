package core

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Property-style abort-path accounting: for randomized option vectors over
// a nondeterministic walk with a tolerance acceptance (so matches, redos
// and aborts all occur across the sample), the engine's counters must obey
// the conservation laws that the profiler's overhead attribution and the
// harness rely on:
//
//   - every input is committed exactly once: UsefulInvocations == Inputs,
//     and SpeculativeCommits + FallbackInputs + non-speculative commits
//     == Inputs (non-speculative commits are the first group when
//     speculating, the whole vector otherwise);
//   - squashed work is reprocessed: SquashedInputs == FallbackInputs;
//   - wasted work is bounded: 0 <= Invocations - UsefulInvocations <=
//     SquashedInputs + Redos * max(1, Rollback);
//   - at most one abort per run, and every inter-group boundary resolves
//     to a match or the single abort.
func TestAccountingInvariantsRandomized(t *testing.T) {
	r := rng.New(0xACC0)
	const cases = 400
	sawAbort, sawRedo, sawMatch := false, false, false
	for c := 0; c < cases; c++ {
		n := r.Intn(81)
		inputs := seqInputs(n)
		opts := Options{
			UseAux:    r.Bool(0.9),
			GroupSize: 1 + r.Intn(40),
			Window:    r.Intn(11),
			RedoMax:   r.Intn(5),
			Rollback:  r.Intn(7),
			Workers:   1 + r.Intn(6),
			Seed:      r.Uint64(),
		}
		// A tolerance below the walk's noise scale produces aborts; above
		// it, matches — sweeping it exercises every boundary outcome.
		tol := r.Range(0.05, 3.0)
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(tol))
		outs, _, st := d.Run(inputs, walkState{}, opts)
		name := fmt.Sprintf("case %d (n=%d opts=%+v tol=%.2f)", c, n, opts, tol)

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
		if nonSpec < 0 {
			t.Fatalf("%s: commit accounting negative: %+v", name, st)
		}
		if st.Groups > 1 {
			// Speculating: the non-speculative share is exactly the first
			// group, and aux ran once per subsequent group — except that a
			// group squashed before its task started skips it, so an
			// aborting run may count fewer (never fewer than the boundaries
			// it validated).
			if nonSpec != opts.GroupSize {
				t.Fatalf("%s: non-speculative commits %d, want first group %d",
					name, nonSpec, opts.GroupSize)
			}
			if st.AuxCalls > st.Groups-1 || st.AuxCalls < st.Matches || (st.Aborts == 0 && st.AuxCalls != st.Groups-1) {
				t.Fatalf("%s: aux calls %d, want %d (at least %d when aborting)", name, st.AuxCalls, st.Groups-1, st.Matches)
			}
			if st.AuxInputs > st.AuxCalls*opts.Window {
				t.Fatalf("%s: aux inputs %d exceed calls*window %d",
					name, st.AuxInputs, st.AuxCalls*opts.Window)
			}
		} else if nonSpec != n {
			t.Fatalf("%s: sequential run committed %d of %d non-speculatively", name, nonSpec, n)
		}
		if st.Aborts > 1 {
			t.Fatalf("%s: %d aborts in one run", name, st.Aborts)
		}
		if st.Groups > 1 && st.Matches+st.Aborts > st.Groups-1 {
			t.Fatalf("%s: boundary outcomes %d exceed boundaries %d",
				name, st.Matches+st.Aborts, st.Groups-1)
		}
		if st.Aborts == 0 && st.Groups > 1 && st.Matches != st.Groups-1 {
			t.Fatalf("%s: no abort but only %d/%d boundaries matched",
				name, st.Matches, st.Groups-1)
		}
		if st.Steals < 0 || st.LocalHits < 0 {
			t.Fatalf("%s: negative scheduler counters %+v", name, st)
		}
		if want := int64(min(opts.Workers, st.Groups) - 1); st.Groups > 1 && st.Steals+st.LocalHits != want {
			// Every lane but the caller's is one task, dispatched exactly once
			// by the private pool (no concurrent runs share it), as a local hit
			// or steal — and the run waited for each before it read the counters.
			t.Fatalf("%s: %d dispatches for %d lanes over %d groups, want %d", name, st.Steals+st.LocalHits, opts.Workers, st.Groups, want)
		}

		sawAbort = sawAbort || st.Aborts > 0
		sawRedo = sawRedo || st.Redos > 0
		sawMatch = sawMatch || st.Matches > 0
	}
	// The property sample must actually have exercised all three boundary
	// outcomes, or the invariants above were vacuous.
	if !sawAbort || !sawRedo || !sawMatch {
		t.Fatalf("sample did not exercise all outcomes: abort=%v redo=%v match=%v",
			sawAbort, sawRedo, sawMatch)
	}
}

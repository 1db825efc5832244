package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sched"
)

// The controlled-scheduler integration contract: with a controller attached
// the engine must produce the same observable results as without one (the
// schedule may be adversarial, not the semantics), any recorded run must
// replay to the identical decision sequence and output at any width, and
// races that are invisible to wall-clock testing — timeout-vs-validate,
// breaker half-open probes — must become schedulable and reproducible.

// specSubset is the schedule-independent slice of Stats: invocation totals
// are excluded because how far a squashed lane ran before observing the
// abort flag legitimately varies with the schedule.
type specSubset struct {
	Inputs, Groups, Matches, Redos, Aborts        int
	SpeculativeCommits, SquashedInputs            int
	FallbackInputs                                int
	PanickedGroups, TimedOutGroups, BreakerDenied int
}

func subset(st Stats) specSubset {
	return specSubset{
		Inputs: st.Inputs, Groups: st.Groups, Matches: st.Matches,
		Redos: st.Redos, Aborts: st.Aborts,
		SpeculativeCommits: st.SpeculativeCommits, SquashedInputs: st.SquashedInputs,
		FallbackInputs: st.FallbackInputs,
		PanickedGroups: st.PanickedGroups, TimedOutGroups: st.TimedOutGroups,
		BreakerDenied: st.BreakerDenied,
	}
}

func TestControlledEquivalentToSequential(t *testing.T) {
	// Deterministic compute + exact aux: every controlled schedule must
	// commit outputs byte-identical to the sequential baseline.
	inputs := seqInputs(64)
	seq := New(deterministicCompute, nil, walkOps())
	for _, g := range []int{4, 8, 16} {
		for _, workers := range []int{1, 2, 4} {
			for ctlSeed := uint64(0); ctlSeed < 6; ctlSeed++ {
				seed := uint64(g*100 + workers)
				seqOuts, seqFinal, _ := seq.Run(inputs, walkState{}, Options{Seed: seed})

				var ctl sched.Controller
				kind := "random"
				if ctlSeed%2 == 0 {
					ctl = sched.NewRandom(ctlSeed)
				} else {
					ctl = sched.NewPCT(ctlSeed, 3, 256)
					kind = "pct"
				}
				d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
				outs, final, st := d.Run(inputs, walkState{}, Options{
					UseAux: true, GroupSize: g, Window: 16, Workers: workers,
					Seed: seed, Sched: ctl,
				})
				name := fmt.Sprintf("g=%d w=%d %s seed=%d", g, workers, kind, ctlSeed)
				if st.Aborts != 0 {
					t.Fatalf("%s: perfect aux aborted: %+v", name, st)
				}
				if got, want := renderRun(outs, final), renderRun(seqOuts, seqFinal); got != want {
					t.Fatalf("%s: controlled run diverged:\n got %s\nwant %s", name, got, want)
				}
				if g, ok := ctl.(interface{ Stalls() int }); ok && g.Stalls() != 0 {
					t.Fatalf("%s: %d stall force-admissions (a blocking op is not wrapped)", name, g.Stalls())
				}
			}
		}
	}
}

func TestRecordReplayExact(t *testing.T) {
	// The worker pool is no part of the schedule, so at any width and under
	// either protocol a recorded schedule must replay with zero divergences,
	// the identical re-recorded decision sequence, and byte-identical
	// output.
	inputs := seqInputs(48)
	slotOps, reserve := SlotOps[int, float64](func(in int) []int { return []int{in % 3} }, nil, nil)
	slotCompute := func(_ *rng.Source, in int, s []float64) (int, []float64) {
		s[in%3] += float64(in)
		return in * 2, s
	}
	protocols := []struct {
		name string
		run  func(opts Options) (string, Stats)
	}{
		{"aux", func(opts Options) (string, Stats) {
			d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
			outs, final, st := d.Run(inputs, walkState{}, opts)
			return renderRun(outs, final), st
		}},
		{"reservations", func(opts Options) (string, Stats) {
			opts.Protocol = ProtocolReservations
			d := New(slotCompute, nil, slotOps).WithReserve(reserve)
			outs, final, st := d.Run(inputs, make([]float64, 3), opts)
			return fmt.Sprintf("%v|%v", outs, final), st
		}},
	}
	for _, p := range protocols {
		for _, workers := range []int{1, 2, 4} {
			for ctlSeed := uint64(0); ctlSeed < 4; ctlSeed++ {
				name := fmt.Sprintf("%s w=%d seed=%d", p.name, workers, ctlSeed)
				rec := sched.NewRandom(ctlSeed, sched.WithRecording())
				opts := Options{
					UseAux: true, GroupSize: 6, Window: 12, Workers: workers,
					Seed: 99, Sched: rec,
				}
				want, wantSt := p.run(opts)
				tr := rec.TraceCopy()
				if len(tr.Entries) == 0 {
					t.Fatalf("%s: controlled run recorded no admissions", name)
				}
				if rec.Stalls() != 0 {
					t.Fatalf("%s: recording stalled %d times", name, rec.Stalls())
				}

				rep := sched.NewReplay(tr, sched.WithRecording())
				opts.Sched = rep
				got, gotSt := p.run(opts)
				if got != want {
					t.Fatalf("%s: replayed output diverged", name)
				}
				if rep.Divergences() != 0 || rep.Remaining() != 0 {
					t.Fatalf("%s: replay not exact: %d divergences, %d remaining",
						name, rep.Divergences(), rep.Remaining())
				}
				if re := rep.TraceCopy(); !re.Equal(tr) {
					t.Fatalf("%s: re-recorded decision sequence differs (%d vs %d entries)",
						name, len(re.Entries), len(tr.Entries))
				}
				if subset(gotSt) != subset(wantSt) || gotSt.Invocations != wantSt.Invocations {
					t.Fatalf("%s: replayed stats differ:\n got %+v\nwant %+v", name, gotSt, wantSt)
				}
			}
		}
	}
}

func TestForcedTimeoutVsValidateRace(t *testing.T) {
	// With a deadline and a controller, expiry is a per-step scheduling
	// decision (PointTimeoutCheck), not a clock read. Forcing it at a low
	// rate explores timeout-vs-validate interleavings: whichever side
	// wins, the output contract must hold (fallback reprocesses squashed
	// inputs; deterministic compute makes results byte-identical).
	inputs := seqInputs(48)
	seq := New(deterministicCompute, nil, walkOps())
	seqOuts, seqFinal, _ := seq.Run(inputs, walkState{}, Options{Seed: 5})

	sawTimeout := false
	var timeoutTrace *sched.Trace
	var wantTimedOut int
	for ctlSeed := uint64(0); ctlSeed < 12; ctlSeed++ {
		ctl := sched.NewRandom(ctlSeed, sched.WithRecording(), sched.WithForcedTimeouts(0.05))
		d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
		outs, final, st := d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 8, Window: 8, Workers: 1,
			Seed: 5, GroupTimeout: time.Millisecond, Sched: ctl,
		})
		if renderRun(outs, final) != renderRun(seqOuts, seqFinal) {
			t.Fatalf("seed %d: timed-out run diverged from sequential", ctlSeed)
		}
		if st.TimedOutGroups > 0 {
			if st.Aborts == 0 || st.FallbackInputs == 0 {
				t.Fatalf("seed %d: timeout without abort/fallback: %+v", ctlSeed, st)
			}
			if !sawTimeout {
				sawTimeout = true
				timeoutTrace = ctl.TraceCopy()
				wantTimedOut = st.TimedOutGroups
			}
		}
	}
	if !sawTimeout {
		t.Fatal("no seed produced a forced timeout at rate 0.05 (expected ~all)")
	}

	// Replaying the timeout schedule reproduces the same squash.
	rep := sched.NewReplay(timeoutTrace)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	outs, final, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 8, Window: 8, Workers: 1,
		Seed: 5, GroupTimeout: time.Millisecond, Sched: rep,
	})
	if renderRun(outs, final) != renderRun(seqOuts, seqFinal) {
		t.Fatal("replayed timeout run diverged from sequential")
	}
	if st.TimedOutGroups != wantTimedOut {
		t.Fatalf("replay timed out %d groups, recording had %d", st.TimedOutGroups, wantTimedOut)
	}
}

// halfOpenRace runs the breaker half-open probe race under one controller:
// run A (aborting aux) and run B (exact aux) share an admission that, like
// a just-half-opened breaker, admits until a failed Record. Whether B's
// Allow lands before or after A's failing Record — which re-opens it — is
// purely a scheduling decision. Returns whether B was denied.
func halfOpenRace(t *testing.T, ctl sched.Controller) (bDenied bool) {
	t.Helper()
	b := &fakeAdmission{}

	// Announce both coordinators before spawning them, so dispatch waits
	// for the pair and the race is decided by the controller, not by which
	// goroutine the OS starts first.
	if g, ok := ctl.(interface{ Expect(lane int) }); ok {
		g.Expect(0)
		g.Expect(1000)
	}

	inputs := seqInputs(12)
	var wg sync.WaitGroup
	var stA, stB Stats
	wg.Add(2)
	go func() {
		defer wg.Done()
		d := New(deterministicCompute, badAux, walkOps())
		_, _, stA = d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 3, Window: 12, Workers: 1, Seed: 1,
			Breaker: b, Sched: ctl, SchedLane: 0,
		})
	}()
	go func() {
		defer wg.Done()
		d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
		_, _, stB = d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 3, Window: 12, Workers: 1, Seed: 2,
			Breaker: b, Sched: ctl, SchedLane: 1000,
		})
	}()
	wg.Wait()
	if stA.BreakerDenied == 0 && stA.Aborts == 0 {
		t.Fatalf("aborting run neither denied nor aborted: %+v", stA)
	}
	return stB.BreakerDenied == 1
}

// craftDeniedTrace turns a recorded half-open race into the adversarial
// interleaving random search cannot reach: keep run A's entries (its
// internal order is self-consistent; the two runs only interact through
// the breaker), drop run B's, and append a single constrained yield that
// holds B's Allow until after A's failing Record has re-opened the
// breaker. B's later decision points have no remaining entries, so replay
// admits them freely once it runs.
func craftDeniedTrace(rec *sched.Trace) *sched.Trace {
	crafted := &sched.Trace{Seed: rec.Seed, Controller: "crafted", Note: "hold B's half-open probe past A's failing record"}
	for _, e := range rec.Entries {
		if e.Lane < 1000 {
			crafted.Entries = append(crafted.Entries, e)
		}
	}
	crafted.Entries = append(crafted.Entries, sched.Entry{
		Kind: sched.KindYield, Point: sched.PointBreakerAllow, Lane: 1000,
	})
	return crafted
}

func TestBreakerHalfOpenProbeRaceUnderReplay(t *testing.T) {
	// Under natural schedules B's probe lands while A is still running, so
	// the breaker is half-open and B is admitted. The losing interleaving
	// — A's failing probe re-opens the breaker before B's Allow — needs a
	// crafted schedule, and Replay must pin it.
	rec := sched.NewRandom(1, sched.WithRecording())
	if denied := halfOpenRace(t, rec); denied {
		t.Fatal("natural schedule denied B's probe; harness assumption broken")
	}
	tr := rec.TraceCopy()

	// Replaying the natural recording reproduces the admitted outcome.
	if got := halfOpenRace(t, sched.NewReplay(tr)); got {
		t.Fatal("replay of natural schedule flipped the race to denied")
	}

	// The crafted schedule forces the opposite outcome, reproducibly.
	crafted := craftDeniedTrace(tr)
	for round := 0; round < 3; round++ {
		rep := sched.NewReplay(crafted)
		if got := halfOpenRace(t, rep); !got {
			t.Fatalf("round %d: crafted schedule did not deny B's probe", round)
		}
		if rep.Stalls() != 0 {
			t.Fatalf("round %d: crafted replay needed %d stall force-admissions", round, rep.Stalls())
		}
	}
}

package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

var updateSchedules = flag.Bool("update-schedules", false,
	"re-record the golden adversarial schedules in testdata/schedules")

// Golden adversarial schedules: interleavings random exploration rarely
// (or never) produces, committed as replayable traces. Each golden couples
// a fixed engine harness with a trace crafted from a recorded run by
// reordering entries within the feasibility rules (per-lane program order
// is preserved; cross-lane order is the schedule). `go test -run
// TestGoldenSchedules -update-schedules ./internal/core` re-records them.

const goldenDir = "../../testdata/schedules"

// goldenHarness runs the fixed engine configuration for a golden under the
// given controller and returns the run's rendering and stats. Workers=1 is
// a one-lane run: it has no pool, every group runs on the caller's goroutine
// (yielding on the group's own lane). Workers > 1 adds the process pool's
// workers, and the schedule is the same kind of thing: lanes claim groups by
// ticket and the pool is no participant, so which goroutine runs a group
// never shows in it, and crafted traces replay exactly at any width. The
// caller does not re-enter the schedule between its fan-out and its lane
// loop: lane 0 is blocked from the fan-out to the last lane's end and is
// admitted at the resume after it.
func goldenHarness(aux Aux[int, walkState], inputs []int, workers int, timeout time.Duration, o *obs.Observer) func(ctl sched.Controller) (string, Stats) {
	return func(ctl sched.Controller) (string, Stats) {
		opts := Options{
			UseAux: true, GroupSize: 4, Window: len(inputs), Workers: workers,
			RedoMax: 1, Rollback: 4, Seed: 77,
			GroupTimeout: timeout, Sched: ctl, Obs: o,
		}
		d := New(deterministicCompute, aux, walkOps())
		outs, final, st := d.Run(inputs, walkState{}, opts)
		return renderRun(outs, final), st
	}
}

func goldenSequential(inputs []int) string {
	d := New(deterministicCompute, nil, walkOps())
	outs, final, _ := d.Run(inputs, walkState{}, Options{Seed: 77})
	return renderRun(outs, final)
}

// yields appends one yield admission per point on lane.
func yields(tr *sched.Trace, lane int, points ...sched.Point) {
	for _, p := range points {
		tr.Entries = append(tr.Entries, sched.Entry{Kind: sched.KindYield, Point: p, Lane: lane})
	}
}

// groupYields appends group j's admissions up to and including its steps-th
// step: aux (groups after the first), group-start, then the steps.
func groupYields(tr *sched.Trace, j, steps int) {
	if j > 0 {
		yields(tr, 1+j, sched.PointAux)
	}
	yields(tr, 1+j, sched.PointGroupStart)
	for ; steps > 0; steps-- {
		yields(tr, 1+j, sched.PointGroupStep)
	}
}

// craftAllFinishBeforeValidate writes the schedule of maximal validation
// laziness for groups groups of g inputs on two lanes: group 1's lane takes
// the resolver role when it finishes and is held at its first validate while
// the other goroutine runs every remaining group to its finish (each finds
// the role taken and retires), and only then are all the boundaries
// resolved, back to back, on that one lane. The coordinator is admitted once,
// after every lane is done.
func craftAllFinishBeforeValidate(groups, g int) *sched.Trace {
	out := &sched.Trace{Controller: "crafted", Note: "all groups finish before the first validate"}
	for j := 0; j < groups; j++ {
		groupYields(out, j, g)
		yields(out, 1+j, sched.PointGroupFinish)
	}
	for j := 1; j < groups; j++ {
		yields(out, 2, sched.PointValidate)
	}
	yields(out, 0, sched.PointResume)
	return out
}

// craftCoordinatorParked reorders a recorded run so the coordinator lane is
// not admitted once before the last group lane's last admission: every entry
// of a group lane first, in recorded order, then the coordinator's. The
// lanes resolve the boundaries among themselves — the engine keeps lane 0
// out of the schedule for exactly that stretch, so the reordering moves
// nothing today; a design that validates on the coordinator's lane stalls
// here.
func craftCoordinatorParked(rec *sched.Trace) *sched.Trace {
	out := &sched.Trace{Seed: rec.Seed, Controller: "crafted",
		Note: "coordinator never scheduled between launch and the last lane's finish"}
	for _, lanes := range []bool{true, false} {
		for _, e := range rec.Entries {
			if (e.Lane > 0) == lanes {
				out.Entries = append(out.Entries, e)
			}
		}
	}
	return out
}

// craftAbortAtOneWave writes the schedule in which an abort at boundary 1
// wastes one wave on two lanes: group 0 runs to its finish, group 1 runs
// its steps while group 2 — claimed by the lane group 0 freed — gets
// half-way; then group 1 finishes and its lane validates, spends its redos,
// and squashes before any other lane is admitted again. Group 2 observes
// the flag at its next step, and every later group before its aux.
func craftAbortAtOneWave(groups, g, redoMax int) *sched.Trace {
	out := &sched.Trace{Controller: "crafted", Note: "abort at boundary 1 squashes every later group at its next inspection"}
	groupYields(out, 0, g)
	yields(out, 1, sched.PointGroupFinish)
	groupYields(out, 1, g)
	groupYields(out, 2, g/2)
	yields(out, 2, sched.PointGroupFinish, sched.PointValidate)
	for r := 0; r < redoMax; r++ {
		yields(out, 2, sched.PointRedo)
	}
	yields(out, 2, sched.PointSquash)
	yields(out, 3, sched.PointGroupStep, sched.PointGroupFinish)
	for j := 3; j < groups; j++ {
		groupYields(out, j, 1)
		yields(out, 1+j, sched.PointGroupFinish)
	}
	yields(out, 0, sched.PointResume, sched.PointFallback)
	return out
}

// craftLateGroupsPastSquash holds every lane >= fromLane back until after
// the coordinator's squash: the squashed groups observe the abort before
// producing their auxiliary state or running a single step, so each one's
// admissions collapse to exactly aux (which sees the flag and skips the
// auxiliary code), group-start, one group-step (which sees the flag and
// breaks), and group-finish — the crafted trace substitutes those four for
// whatever the lanes recorded. All held lanes move together because one lane
// runs their groups in index order: freeing lane L while holding lane
// L-1 would be infeasible.
func craftLateGroupsPastSquash(rec *sched.Trace, fromLane int) *sched.Trace {
	out := &sched.Trace{Seed: rec.Seed, Controller: "crafted",
		Note: "groups admitted only after the squash they must observe"}
	squash := -1
	lanes := map[int]bool{}
	for i, e := range rec.Entries {
		if squash < 0 && e.Point == sched.PointSquash {
			squash = i
		}
		if e.Lane >= fromLane {
			lanes[e.Lane] = true
		}
	}
	if squash < 0 {
		return out
	}
	ordered := make([]int, 0, len(lanes))
	for l := range lanes {
		ordered = append(ordered, l)
	}
	sort.Ints(ordered)
	for i, e := range rec.Entries {
		if e.Lane >= fromLane {
			continue
		}
		out.Entries = append(out.Entries, e)
		if i == squash {
			for _, l := range ordered {
				yields(out, l, sched.PointAux, sched.PointGroupStart, sched.PointGroupStep, sched.PointGroupFinish)
			}
		}
	}
	return out
}

// resvGoldenHarness runs the reservations protocol at Workers=2. The
// recorded decision points are the engine's reserve/reserve-check/commit
// yields, whose counts are schedule-independent (the coordinator decides
// every reservation itself, in input order, so the pending sets, winners and
// round structure never depend on admission order) — which is what makes
// crafted traces exactly replayable at real parallelism. The chunks run on
// the process pool. A nil footprint uses the built-in whole-state slot
// (every input reserves slot 0).
func resvGoldenHarness(fp func(in int) []int) func(ctl sched.Controller) (string, Stats) {
	inputs := seqInputs(12)
	compute := func(_ *rng.Source, in int, s []float64) (int, []float64) {
		s[in%2] += float64(in)
		return in * 2, s
	}
	ops, reserve := SlotOps[int, float64](fp, nil, nil)
	return func(ctl sched.Controller) (string, Stats) {
		d := New(compute, nil, ops)
		if fp != nil {
			d.WithReserve(reserve)
		}
		opts := Options{
			UseAux: true, Protocol: ProtocolReservations,
			GroupSize: 6, Workers: 2, Seed: 77, Sched: ctl,
		}
		if ctl == nil {
			opts.UseAux = false // sequential reference, same shape
		}
		outs, final, st := d.Run(inputs, make([]float64, 2), opts)
		return fmt.Sprintf("%v|%v", outs, final), st
	}
}

// craftWaveLanesDescending reorders every maximal consecutive run of
// entries at the given point so higher lanes are admitted first. Per-lane
// program order is untouched (the sort is stable and only crosses lanes),
// and a run of same-point entries is always one wave — waves are barriers,
// so two waves of the same point are separated by the other phase's
// entries — which keeps the crafted trace feasible.
func craftWaveLanesDescending(rec *sched.Trace, point sched.Point, note string) *sched.Trace {
	out := &sched.Trace{Seed: rec.Seed, Controller: "crafted", Note: note}
	i := 0
	for i < len(rec.Entries) {
		if rec.Entries[i].Point != point {
			out.Entries = append(out.Entries, rec.Entries[i])
			i++
			continue
		}
		j := i
		for j < len(rec.Entries) && rec.Entries[j].Point == point {
			j++
		}
		run := append([]sched.Entry{}, rec.Entries[i:j]...)
		sort.SliceStable(run, func(a, b int) bool { return run[a].Lane > run[b].Lane })
		out.Entries = append(out.Entries, run...)
		i = j
	}
	return out
}

func TestGoldenSchedules(t *testing.T) {
	in24, in128 := seqInputs(24), seqInputs(128)
	exactHarness := goldenHarness(exactAuxFor(in24), in24, 1, 0, nil)
	exactHarness2 := goldenHarness(exactAuxFor(in24), in24, 2, 0, nil)
	badHarness := goldenHarness(badAux, in24, 1, 0, nil)
	timeoutHarness := goldenHarness(exactAuxFor(in24), in24, 1, time.Millisecond, nil)

	goldens := []struct {
		name   string
		record func(t *testing.T) *sched.Trace
		check  func(t *testing.T, tr *sched.Trace)
	}{
		{
			name: "all-finish-before-validate",
			record: func(t *testing.T) *sched.Trace {
				return craftAllFinishBeforeValidate(6, 4)
			},
			check: func(t *testing.T, tr *sched.Trace) {
				rep := sched.NewReplay(tr)
				got, st := exactHarness2(rep)
				if want := goldenSequential(in24); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				if st.Aborts != 0 || st.Matches != st.Groups-1 {
					t.Fatalf("lazy validation changed outcomes: %+v", st)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			name: "coordinator-parked",
			record: func(t *testing.T) *sched.Trace {
				rec := sched.NewRandom(3, sched.WithRecording())
				exactHarness(rec)
				return craftCoordinatorParked(rec.TraceCopy())
			},
			check: func(t *testing.T, tr *sched.Trace) {
				rep := sched.NewReplay(tr)
				got, st := exactHarness(rep)
				if want := goldenSequential(in24); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				if st.Aborts != 0 || st.Matches != st.Groups-1 {
					t.Fatalf("boundaries did not all resolve with the coordinator parked: %+v", st)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			name: "abort-at-1-wastes-one-wave",
			record: func(t *testing.T) *sched.Trace {
				return craftAbortAtOneWave(32, 4, 1)
			},
			check: func(t *testing.T, tr *sched.Trace) {
				rep := sched.NewReplay(tr)
				got, st := goldenHarness(badAux, in128, 2, 0, nil)(rep)
				if want := goldenSequential(in128); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				// Inputs + 3·G + RedoMax·Rollback: group 1 and what the other
				// worker had in flight, not the 31 groups a squash that waits
				// for an idle machine wastes.
				if st.Aborts != 1 || st.Groups != 32 || st.Invocations > 128+3*4+1*4 {
					t.Fatalf("abort at boundary 1 wasted more than one wave: %+v", st)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			name: "squash-before-first-step",
			record: func(t *testing.T) *sched.Trace {
				rec := sched.NewRandom(4, sched.WithRecording())
				_, st := badHarness(rec)
				if st.Aborts == 0 {
					t.Fatal("bad-aux recording did not abort")
				}
				return craftLateGroupsPastSquash(rec.TraceCopy(), 3)
			},
			check: func(t *testing.T, tr *sched.Trace) {
				rep := sched.NewReplay(tr)
				o := obs.NewObserver(2, 1024)
				got, st := goldenHarness(badAux, in24, 1, 0, o)(rep)
				if want := goldenSequential(in24); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				if st.Aborts == 0 || st.SquashedInputs == 0 || st.FallbackInputs == 0 {
					t.Fatalf("crafted squash did not exercise abort/fallback: %+v", st)
				}
				// Boundary 1 aborts while groups 2.. are still held: squashed
				// before their tasks start, they skip their auxiliary code, and
				// the event log counts exactly the aux calls that ran.
				if produced := o.Counts()[obs.EvAuxProduced]; st.AuxCalls != 1 || produced != int64(st.AuxCalls) {
					t.Fatalf("AuxCalls = %d with %d aux-produced events, want 1 and 1 of %d groups", st.AuxCalls, produced, st.Groups)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			name: "forced-timeout-squash",
			record: func(t *testing.T) *sched.Trace {
				rec := sched.NewRandom(5, sched.WithRecording(), sched.WithForcedTimeouts(1))
				_, st := timeoutHarness(rec)
				if st.TimedOutGroups == 0 {
					t.Fatal("forced-timeout recording timed out no groups")
				}
				tr := rec.TraceCopy()
				tr.Note = "every deadline check fires: timeout-vs-validate race, timeout wins"
				return tr
			},
			check: func(t *testing.T, tr *sched.Trace) {
				rep := sched.NewReplay(tr)
				got, st := timeoutHarness(rep)
				if want := goldenSequential(in24); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				if st.TimedOutGroups == 0 || st.FallbackInputs == 0 {
					t.Fatalf("replay lost the forced timeout: %+v", st)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			// Every input reserves the same slot (the built-in whole-state
			// footprint), so each round has one winner: the trace pins the
			// whole round on two lanes — every reservation decided at a
			// reserve yield on the coordinator's lane, the lone winner
			// computed on lane 1 (under a controller even a one-chunk wave
			// goes to the pool), the commit back on the coordinator.
			name: "resv-all-lanes-reserve-same-slot",
			record: func(t *testing.T) *sched.Trace {
				h := resvGoldenHarness(nil)
				rec := sched.NewRandom(6, sched.WithRecording())
				_, st := h(rec)
				if st.Rounds == 0 {
					t.Fatal("recording never entered the reservations protocol")
				}
				tr := rec.TraceCopy()
				tr.Note = "whole-state conflict: every reservation decided on the coordinator, one winner per round"
				return tr
			},
			check: func(t *testing.T, tr *sched.Trace) {
				h := resvGoldenHarness(nil)
				rep := sched.NewReplay(tr)
				got, st := h(rep)
				if want, _ := h(nil); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				// Total conflict commits exactly one input per round: each
				// 6-input group needs 6 rounds and 5+4+3+2+1 carry-forwards.
				if st.Rounds != 12 || st.ReservationConflicts != 30 {
					t.Fatalf("total conflict changed the round structure: %+v", st)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			// Alternating two-slot footprints: every round commits one
			// winner per slot — one per lane — while the rest carry
			// forward. The crafted trace admits the higher lane first in
			// every compute wave, so the higher-indexed winner always
			// finishes before the lower-indexed one starts; the commit
			// must still merge them in input order.
			name: "resv-commit-racing-carry-forward",
			record: func(t *testing.T) *sched.Trace {
				h := resvGoldenHarness(func(in int) []int { return []int{in % 2} })
				rec := sched.NewRandom(8, sched.WithRecording())
				_, st := h(rec)
				if st.ReservationConflicts == 0 {
					t.Fatal("recording saw no reservation conflicts")
				}
				return craftWaveLanesDescending(rec.TraceCopy(), sched.PointReserveCheck,
					"higher-indexed winner computes before the lower-indexed one, every round")
			},
			check: func(t *testing.T, tr *sched.Trace) {
				h := resvGoldenHarness(func(in int) []int { return []int{in % 2} })
				rep := sched.NewReplay(tr)
				got, st := h(rep)
				if want, _ := h(nil); got != want {
					t.Fatalf("output diverged:\n got %s\nwant %s", got, want)
				}
				// Two winners per round (one per slot): each 6-input group
				// resolves in 3 rounds with 4+2 carry-forwards.
				if st.Rounds != 6 || st.ReservationConflicts != 12 {
					t.Fatalf("adversarial compute order changed the round structure: %+v", st)
				}
				assertExactReplay(t, rep)
			},
		},
		{
			name: "breaker-halfopen-denied",
			record: func(t *testing.T) *sched.Trace {
				rec := sched.NewRandom(1, sched.WithRecording())
				if halfOpenRace(t, rec) {
					t.Fatal("natural half-open recording denied the probe")
				}
				return craftDeniedTrace(rec.TraceCopy())
			},
			check: func(t *testing.T, tr *sched.Trace) {
				rep := sched.NewReplay(tr)
				if !halfOpenRace(t, rep) {
					t.Fatal("crafted schedule did not deny the half-open probe")
				}
				if rep.Stalls() != 0 {
					t.Fatalf("crafted replay needed %d stall force-admissions", rep.Stalls())
				}
			},
		},
	}

	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join(goldenDir, g.name+".trace")
			if *updateSchedules {
				tr := g.record(t)
				if len(tr.Entries) == 0 {
					t.Fatalf("recorded empty trace for %s", g.name)
				}
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := tr.WriteFile(path); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := sched.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update-schedules)", err)
			}
			g.check(t, tr)
		})
	}
}

func assertExactReplay(t *testing.T, rep *sched.Replay) {
	t.Helper()
	if rep.Stalls() != 0 {
		t.Fatalf("replay needed %d stall force-admissions", rep.Stalls())
	}
	if rep.Divergences() != 0 || rep.Remaining() != 0 {
		t.Fatalf("replay not exact: %d divergences, %d entries unconsumed",
			rep.Divergences(), rep.Remaining())
	}
}

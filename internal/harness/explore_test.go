package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/racemode"
	"repro/internal/sched"
)

// smokeRun runs the tier-1 exploration smoke: one workload under each
// protocol plus one synthetic fault mix per protocol, at the smallest
// shape that speculates (two groups of four). The full row set and size
// are `make explore`'s job.
func smokeRun(t *testing.T, schedules, replayEvery int) []exploreRow {
	t.Helper()
	pinned := []string{
		"streamcluster", "streamcluster (resv)",
		"synthetic aux-panic 10%", "synthetic reservations compute-once 30%",
	}
	e := NewEnv(true)
	e.RealSize = 8
	var targets []exploreTarget
	for _, tgt := range exploreTargets(e) {
		if slices.Contains(pinned, tgt.name) {
			targets = append(targets, tgt)
		}
	}
	if len(targets) != len(pinned) {
		t.Fatalf("found %d of the %d pinned rows", len(targets), len(pinned))
	}
	e.Schedules = schedules
	rows, err := exploreRun(e, targets, exploreConfig{replayEvery: replayEvery, dumpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestExploreQuick(t *testing.T) {
	schedules, replayEvery := 2, 1
	if racemode.Enabled {
		// Gate-serialized runs magnify race instrumentation; one schedule
		// per row still exercises every row end to end.
		schedules, replayEvery = 1, 2
	}
	rows := smokeRun(t, schedules, replayEvery)
	if len(rows) != 4 {
		t.Fatalf("ran %d rows, want the 4 pinned ones", len(rows))
	}
	for _, r := range rows {
		if r.Failures != 0 {
			t.Errorf("%s: %d schedules broke the output contract", r.Name, r.Failures)
		}
		if r.Schedules != schedules {
			t.Errorf("%s: ran %d schedules, want %d", r.Name, r.Schedules, schedules)
		}
		if want := (schedules + replayEvery - 1) / replayEvery; r.Replays != want {
			t.Errorf("%s: verified %d replays, want %d", r.Name, r.Replays, want)
		}
		if r.Stalls != 0 {
			t.Errorf("%s: %d stall force-admissions (unwrapped blocking op)", r.Name, r.Stalls)
		}
		if r.ReplayDivergences != 0 {
			t.Errorf("%s: sampled replays were inexact by %d entries", r.Name, r.ReplayDivergences)
		}
		if r.Distinct < 1 || r.Distinct > r.Schedules {
			t.Errorf("%s: distinct=%d out of range", r.Name, r.Distinct)
		}
	}
}

func TestExploreTableRenders(t *testing.T) {
	tb, err := exploreTable(smokeRun(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Explore", "schedules", "failures", "distinct interleavings", "streamcluster (resv)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// A recorded schedule that does not pin its run fails the campaign: the
// target's second run (the replay) yields on a different lane than the one
// recorded, the edited lane is admitted unconstrained, and the recorded
// entry is never consumed.
func TestExploreFailsOnInexactReplay(t *testing.T) {
	calls := 0
	drifting := exploreTarget{name: "drifting", run: func(ctl sched.Controller) bool {
		calls++
		ctl.Yield(sched.PointGroupStart, calls)
		ctl.Done(calls)
		return true
	}}
	e := NewEnv(true)
	e.Schedules = 1
	rows, err := exploreRun(e, []exploreTarget{drifting}, exploreConfig{replayEvery: 1, dumpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.Failures != 0 || r.Replays != 1 || r.ReplayDivergences != 1 {
		t.Fatalf("row = %+v, want one replay inexact by the one unconsumed entry", r)
	}
	if _, err := exploreTable(rows); err == nil {
		t.Fatal("an inexact replay did not fail the campaign")
	}
	if _, err := exploreTable([]exploreRow{{Name: "stalled", Schedules: 1, Stalls: 1}}); err == nil {
		t.Fatal("a stalled exploration run did not fail the campaign")
	}
}

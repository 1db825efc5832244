package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/racemode"
)

// smokeRun runs the tier-1 exploration smoke: one workload under each
// protocol plus one synthetic fault mix per protocol, at the smallest
// shape that speculates (two groups of four). Their recorded schedules are
// short, so even a replay that has to resynchronize past timing-dependent
// pool entries (100 ms each) stays seconds-scale. The full row set and
// size are `make explore`'s job.
func smokeRun(t *testing.T, schedules, replayEvery int) []ExploreRow {
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
	rows, err := exploreRun(e, targets, ExploreConfig{
		SchedulesPerRow: schedules, ReplayEvery: replayEvery, DumpDir: t.TempDir(),
	})
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

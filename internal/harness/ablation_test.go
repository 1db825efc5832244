package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/workload/bodytrack"
	"repro/internal/workload/fluidanimate"
	"repro/internal/workload/swaptions"
)

func TestAblationGroupSweep(t *testing.T) {
	e := quickEnv()
	pts := ablation(e, bodytrack.New(), ablateGroup)
	if len(pts) != 6 {
		t.Fatalf("points: %d", len(pts))
	}
	// Some group size must beat the degenerate extremes: tiny groups pay
	// validation per input, giant groups serialize.
	best, worst := 0.0, 1e18
	for _, p := range pts {
		if p.Speedup <= 0 {
			t.Fatalf("speedup %v at group %d", p.Speedup, p.Value)
		}
		if p.Speedup > best {
			best = p.Speedup
		}
		if p.Speedup < worst {
			worst = p.Speedup
		}
	}
	if best < worst*1.1 {
		t.Fatalf("group size made no difference: best %v worst %v", best, worst)
	}
}

func TestAblationWindowMonotoneCost(t *testing.T) {
	e := quickEnv()
	pts := ablation(e, swaptions.New(), ablateWindow)
	// swaptions accepts by construction: wider windows only add aux
	// work, so speedup must not improve with window width.
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup > pts[0].Speedup*1.05 {
			t.Fatalf("window %d beat window %d: %v vs %v",
				pts[i].Value, pts[0].Value, pts[i].Speedup, pts[0].Speedup)
		}
	}
}

func TestAblationRedoOnDoomedWorkload(t *testing.T) {
	e := quickEnv()
	pts := ablation(e, fluidanimate.New(), ablateRedo)
	// fluidanimate's speculation never matches: more redos only waste
	// work, so speedup must be non-increasing in the redo budget.
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup > pts[i-1].Speedup+1e-9 {
			t.Fatalf("redo %d beat redo %d: %v vs %v",
				pts[i].Value, pts[i-1].Value, pts[i].Speedup, pts[i-1].Speedup)
		}
	}
}

func TestSpecBehaviorWindowSweep(t *testing.T) {
	e := quickEnv()
	pts := specBehavior(e, bodytrack.New())
	if len(pts) != 5 {
		t.Fatalf("points: %d", len(pts))
	}
	// The real engine must match more with a window than without one.
	if pts[0].Matches >= pts[len(pts)-1].Matches && pts[len(pts)-1].Matches > 0 {
		t.Fatalf("window did not help real acceptance: %+v", pts)
	}
}

func TestAblationTablesRender(t *testing.T) {
	e := quickEnv()
	var buf bytes.Buffer
	ablationTable(e, bodytrack.New(), ablateGroup).Render(&buf)
	ablationTable(e, bodytrack.New(), ablateRollback).Render(&buf)
	specBehaviorTable(e, bodytrack.New()).Render(&buf)
	out := buf.String()
	for _, want := range []string{"group sweep", "rollback sweep", "speculation behaviour", "matches"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSchedulerAblation(t *testing.T) {
	e := quickEnv()
	tb := schedulerAblation(e)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "critical-path-first") {
		t.Fatal("render")
	}
}

func TestAblationUnknownDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ablation(quickEnv(), bodytrack.New(), ablationDim("bogus"))
}

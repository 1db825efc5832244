package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

func simulateParallel(tasks, threads int) platform.Result {
	g := &platform.Graph{}
	for i := 0; i < tasks; i++ {
		g.Add(1)
	}
	return platform.Simulate(platform.Haswell28(false), g, threads)
}

func TestRenderBasics(t *testing.T) {
	res := simulateParallel(8, 4)
	var b strings.Builder
	Render(&b, res, Options{})
	out := b.String()
	if !strings.Contains(out, "schedule: 8 tasks on 4 threads") {
		t.Fatalf("header missing:\n%s", out)
	}
	// Four thread rows.
	for _, row := range []string{"t00", "t01", "t02", "t03"} {
		if !strings.Contains(out, row) {
			t.Fatalf("row %s missing:\n%s", row, out)
		}
	}
	// Two waves of work: rows should be fully busy (no '.' gaps).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, l := range lines[1:] {
		cells := strings.SplitN(l, " ", 2)[1]
		if strings.Contains(cells, ".") {
			t.Fatalf("unexpected idle cell in %q", l)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	Render(&b, platform.Result{}, Options{})
	out := b.String()
	if !strings.Contains(out, "empty schedule") {
		t.Fatalf("empty schedule: %q", out)
	}
}

func TestRenderCapsThreads(t *testing.T) {
	res := simulateParallel(28, 28)
	var b strings.Builder
	Render(&b, res, Options{MaxThreads: 4})
	out := b.String()
	if !strings.Contains(out, "more threads") {
		t.Fatalf("cap note missing:\n%s", out)
	}
	if strings.Contains(out, "t05") {
		t.Fatal("row beyond cap rendered")
	}
}

func TestUtilization(t *testing.T) {
	// 8 equal tasks on 4 threads: perfectly utilized.
	res := simulateParallel(8, 4)
	if u := Utilization(res); math.Abs(u-1) > 1e-9 {
		t.Fatalf("utilization: %v", u)
	}
	// 5 tasks on 4 threads: 5/8 of thread-time busy.
	res = simulateParallel(5, 4)
	if u := Utilization(res); math.Abs(u-5.0/8) > 1e-9 {
		t.Fatalf("imbalanced utilization: %v", u)
	}
	if Utilization(platform.Result{}) != 0 {
		t.Fatal("empty utilization")
	}
}

func TestAssignmentsCoverWork(t *testing.T) {
	res := simulateParallel(10, 3)
	busy := 0.0
	for _, a := range res.Assignments {
		if a.End < a.Start {
			t.Fatalf("inverted assignment %+v", a)
		}
		busy += a.End - a.Start
	}
	if math.Abs(busy-10) > 1e-9 {
		t.Fatalf("assignments cover %v work units, want 10", busy)
	}
}

func TestCriticalThread(t *testing.T) {
	g := &platform.Graph{}
	g.Add(5) // one long task
	g.Add(1)
	res := platform.Simulate(platform.Haswell28(false), g, 2)
	th, busy := CriticalThread(res)
	if busy != 5 {
		t.Fatalf("critical busy: %v (thread %d)", busy, th)
	}
}

func TestSummary(t *testing.T) {
	res := simulateParallel(4, 4)
	s := Summary(res)
	if !strings.Contains(s, "4 tasks") || !strings.Contains(s, "utilization 100%") {
		t.Fatalf("summary: %q", s)
	}
}

func TestChainShowsSerialization(t *testing.T) {
	// A serialized chain on many threads leaves most rows idle: the
	// Figure 5a picture.
	g := &platform.Graph{}
	prev := g.Add(1)
	for i := 0; i < 7; i++ {
		prev = g.Add(1, prev)
	}
	res := platform.Simulate(platform.Haswell28(false), g, 4)
	if u := Utilization(res); math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("chain utilization: %v (want 0.25)", u)
	}
}

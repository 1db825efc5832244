// Package trace renders platform-simulator schedules as ASCII Gantt
// charts, one row per hardware thread. It is the debugging view behind the
// execution-model diagrams of Figure 5: the serialized chain of the
// conventional execution versus the overlapped groups, auxiliary tasks and
// validations of the speculative one.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/platform"
)

// Options controls rendering.
type Options struct {
	// Width is the chart width in character cells (default 80).
	Width int
	// MaxThreads caps the number of thread rows shown (default: all).
	MaxThreads int
}

// Render writes an ASCII Gantt chart of the schedule. Each row is one
// hardware thread; each task occupies its time span, drawn with a cycling
// glyph so adjacent tasks are distinguishable. Idle time is '.'.
func Render(w io.Writer, res platform.Result, o Options) {
	if o.Width <= 0 {
		o.Width = 80
	}
	if res.Makespan <= 0 || len(res.Assignments) == 0 {
		fmt.Fprintln(w, "(empty schedule)")
		return
	}
	// Group assignments per thread.
	perThread := map[int][]platform.Assignment{}
	maxThread := 0
	for _, a := range res.Assignments {
		perThread[a.Thread] = append(perThread[a.Thread], a)
		if a.Thread > maxThread {
			maxThread = a.Thread
		}
	}
	threads := maxThread + 1
	if o.MaxThreads > 0 && threads > o.MaxThreads {
		threads = o.MaxThreads
	}

	scale := float64(o.Width) / res.Makespan
	glyphs := []byte("#%@*+=o")
	fmt.Fprintf(w, "schedule: %d tasks on %d threads, makespan %.2f (one column = %.3f)\n",
		len(res.Assignments), res.ThreadsUsed, res.Makespan, res.Makespan/float64(o.Width))
	for ti := 0; ti < threads; ti++ {
		row := make([]byte, o.Width)
		for i := range row {
			row[i] = '.'
		}
		as := perThread[ti]
		sort.Slice(as, func(i, j int) bool { return as[i].Start < as[j].Start })
		for _, a := range as {
			lo := int(a.Start * scale)
			hi := int(a.End * scale)
			if hi >= o.Width {
				hi = o.Width - 1
			}
			if hi < lo {
				hi = lo
			}
			g := glyphs[a.Task%len(glyphs)]
			for c := lo; c <= hi; c++ {
				row[c] = g
			}
		}
		fmt.Fprintf(w, "t%02d %s\n", ti, row)
	}
	if threads < maxThread+1 {
		fmt.Fprintf(w, "... (%d more threads)\n", maxThread+1-threads)
	}
}

// Utilization returns the fraction of available thread-time spent busy.
func Utilization(res platform.Result) float64 {
	if res.Makespan <= 0 || res.ThreadsUsed == 0 {
		return 0
	}
	busy := 0.0
	for _, a := range res.Assignments {
		busy += a.End - a.Start
	}
	return busy / (res.Makespan * float64(res.ThreadsUsed))
}

// Summary returns a one-line description of the schedule.
func Summary(res platform.Result) string {
	return fmt.Sprintf("makespan %.2f, %d tasks, utilization %.0f%%",
		res.Makespan, len(res.Assignments), 100*Utilization(res))
}

// CriticalThread returns the busiest thread and its busy time.
func CriticalThread(res platform.Result) (thread int, busy float64) {
	per := map[int]float64{}
	for _, a := range res.Assignments {
		per[a.Thread] += a.End - a.Start
	}
	best := -1.0
	for t, b := range per {
		if b > best || (b == best && t < thread) {
			thread, best = t, b
		}
	}
	if best < 0 {
		best = 0
	}
	return thread, best
}

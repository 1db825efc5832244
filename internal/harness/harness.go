// Package harness drives the paper's evaluation (§4): one experiment per
// table and figure, plus the repository's rigs (self-scrape, chaos,
// schedule exploration, ablation), each producing text tables with the same
// rows/series the paper reports. Experiments lists them all; statsexp is
// flag parsing plus one loop over that list.
//
// Absolute numbers differ from the paper's (the substrate is a simulator,
// not the authors' Haswell testbed); the shapes are the reproduction
// target: who wins, by roughly what factor, and where the crossovers fall.
package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/autotune"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

// Env is the shared experimental setup.
type Env struct {
	// Machine is the simulated platform (the paper's dual-socket,
	// 14-cores-per-socket Haswell).
	Machine platform.Machine
	// Energy is the system power model.
	Energy energy.Model
	// Size is the input size fed to cost models and real runs.
	Size int
	// RealSize is the (smaller) size used where many real executions
	// are needed.
	RealSize int
	// Budget is the autotuner evaluation budget per (workload, threads,
	// mode) point.
	Budget int
	// Runs is the number of repeated real runs for variability studies.
	Runs int
	// Threads is the sweep of hardware-thread counts.
	Threads []int
	// Seed roots every random stream.
	Seed uint64
	// Schedules is how many controlled schedules each explore row runs
	// (half random-walk, half PCT).
	Schedules int

	seqTimes map[string]float64
	tuned    map[string]tunedEntry
}

type tunedEntry struct {
	meas profiler.Measurement
	opts workload.SpecOptions
	res  autotune.Result
}

// NewEnv returns the full-scale environment; quick scales everything down
// for unit tests.
func NewEnv(quick bool) *Env {
	e := &Env{
		Machine:   platform.Haswell28(false),
		Energy:    energy.Default(),
		Size:      2 * workload.NativeSize,
		RealSize:  workload.SmallSize,
		Budget:    200,
		Runs:      30,
		Threads:   []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28},
		Seed:      0x57A75,
		Schedules: 25,
		seqTimes:  map[string]float64{},
		tuned:     map[string]tunedEntry{},
	}
	if quick {
		e.Size = workload.NativeSize
		e.Budget = 60
		e.Runs = 8
		e.Threads = []int{2, 14, 28}
		e.Schedules = 4
	}
	return e
}

// Experiment is one table or figure of the evaluation, or one rig: the ID
// statsexp's -exp selects it by, and the function computing its tables. A
// failed experiment may return tables beside its error (explore's names the
// rows that failed).
type Experiment struct {
	ID  string
	Run func(*Env) ([]*Table, error)
}

// Experiments is every experiment, in the order `statsexp -exp all` runs
// them.
var Experiments = []Experiment{
	{"fig02", fig02Table},
	{"fig03", fig03Table},
	{"table1", table1Table},
	{"fig12", fig12Table},
	{"fig13", fig13Table},
	{"fig14", fig14Table},
	{"fig15", fig15Table},
	{"fig16", fig16Table},
	{"fig17", fig17Table},
	{"fig18", fig18Table},
	{"fig19", fig19Table},
	{"fig20", fig20Table},
	{"scrape", scrapeTable},
	{"chaos", chaosTable},
	{"explore", exploreTables},
	{"ablation", ablationTables},
}

// Targets returns the six STATS targets.
func (e *Env) Targets() []workload.Workload { return registry.Targets() }

// SequentialTime returns (and caches) the workload's single-thread
// makespan — the paper's speedup baseline ("the single-threaded version of
// the out-of-the-box benchmark").
func (e *Env) SequentialTime(w workload.Workload) float64 {
	name := w.Desc().Name
	if t, ok := e.seqTimes[name]; ok {
		return t
	}
	m := w.CostModel(e.Size, workload.SpecOptions{})
	g := taskgen.Build(taskgen.Sequential, m, workload.SpecOptions{}, e.Seed)
	t := platform.Simulate(e.Machine, g, 1).Makespan
	e.seqTimes[name] = t
	return t
}

// OriginalMeasure simulates the out-of-the-box parallelization at the given
// thread count.
func (e *Env) OriginalMeasure(w workload.Workload, threads int) profiler.Measurement {
	p := e.profilerFor(w, taskgen.Original, threads)
	return p.Measure(workload.SpecOptions{}, threads)
}

// OriginalSpeedup returns the original parallelization's speedup at the
// given thread count.
func (e *Env) OriginalSpeedup(w workload.Workload, threads int) float64 {
	return e.SequentialTime(w) / e.OriginalMeasure(w, threads).TimeSeconds
}

// BestOriginal returns the original's best speedup over the thread sweep.
func (e *Env) BestOriginal(w workload.Workload) (best float64, atThreads int) {
	for _, th := range e.Threads {
		if s := e.OriginalSpeedup(w, th); s > best {
			best, atThreads = s, th
		}
	}
	return best, atThreads
}

func (e *Env) profilerFor(w workload.Workload, mode taskgen.Mode, threads int) *profiler.P {
	return &profiler.P{
		Machine:   e.Machine,
		Threads:   threads,
		Energy:    e.Energy,
		W:         w,
		Size:      e.Size,
		Mode:      mode,
		GraphSeed: e.Seed,
	}
}

// TunedSTATS autotunes the workload for the mode, thread count and goal on
// the environment's machine, returning the best measurement, the decoded
// options, and the tuning trace. Results are memoized per (workload, mode,
// threads, goal).
func (e *Env) TunedSTATS(w workload.Workload, mode taskgen.Mode, threads int, goal profiler.Goal) (profiler.Measurement, workload.SpecOptions, autotune.Result) {
	return e.TunedSTATSOn(e.Machine, "", w, mode, threads, goal)
}

// TunedSTATSOn is TunedSTATS on an explicit machine (the Fig. 14 single-
// socket/Hyper-Threading studies); machineKey disambiguates the memo.
func (e *Env) TunedSTATSOn(mach platform.Machine, machineKey string, w workload.Workload, mode taskgen.Mode, threads int, goal profiler.Goal) (profiler.Measurement, workload.SpecOptions, autotune.Result) {
	key := fmt.Sprintf("%s/%s/%d/%d/%d", w.Desc().Name, machineKey, mode, threads, goal)
	if ent, ok := e.tuned[key]; ok {
		return ent.meas, ent.opts, ent.res
	}
	p := e.profilerFor(w, mode, threads)
	p.Machine = mach
	s := profiler.BuildSpace(w.Desc().Tradeoffs, int64(threads))
	res := autotune.Tune(s, p.Objective(s, goal, false), autotune.Options{
		Budget: e.Budget, Seed: e.Seed, Seeds: profiler.SeedConfigs(s),
	})
	opts, th := profiler.Decode(s, res.Best)
	meas := p.Measure(opts, th)
	ent := tunedEntry{meas: meas, opts: opts, res: res}
	e.tuned[key] = ent
	return ent.meas, ent.opts, ent.res
}

// STATSSpeedup returns the tuned STATS speedup for the mode at the given
// thread count.
func (e *Env) STATSSpeedup(w workload.Workload, mode taskgen.Mode, threads int) float64 {
	meas, _, _ := e.TunedSTATS(w, mode, threads, profiler.Time)
	return e.SequentialTime(w) / meas.TimeSeconds
}

// Table is a renderable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one table line.
type Row struct {
	Label string
	Cells []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(label string, cells ...string) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// AddNote appends a note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// fmtNum formats a float compactly for table cells.
func fmtNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("benchmark")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i]) > widths[i+1] {
				widths[i+1] = len(r.Cells[i])
			}
		}
	}
	header := fmt.Sprintf("%-*s", widths[0], "benchmark")
	for i, c := range t.Columns {
		header += fmt.Sprintf("  %*s", widths[i+1], c)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		line := fmt.Sprintf("%-*s", widths[0], r.Label)
		for i := range t.Columns {
			cell := ""
			if i < len(r.Cells) {
				cell = r.Cells[i]
			}
			line += fmt.Sprintf("  %*s", widths[i+1], cell)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

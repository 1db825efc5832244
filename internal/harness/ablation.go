package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// ablationDim names a state-space dimension the ablation sweeps while the
// rest of the (autotuned) configuration is held fixed.
type ablationDim string

// The ablation's dimensions, in the order it sweeps them.
const (
	ablateGroup    ablationDim = "group"
	ablateWindow   ablationDim = "window"
	ablateRedo     ablationDim = "redo"
	ablateRollback ablationDim = "rollback"
)

// ablationPoint is one swept value and its resulting speedup.
type ablationPoint struct {
	Value   int
	Speedup float64
}

// ablation sweeps one engine dimension for one workload at 28 threads,
// holding everything else at the autotuned configuration. It quantifies
// the design choices of §3.1: group cardinality (how much TLP is
// liberated), the auxiliary input window (speculation accuracy vs aux
// cost), the redo budget (exploiting nondeterminism for extra original
// states), and the rollback width (how much of the previous group each
// re-execution recomputes).
func ablation(e *Env, w workload.Workload, dim ablationDim) []ablationPoint {
	_, tuned, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
	tuned.UseAux = true
	p := e.profilerFor(w, taskgen.ParSTATS, 28)
	seq := e.SequentialTime(w)

	var values []int
	switch dim {
	case ablateGroup:
		values = []int{2, 4, 8, 16, 32, 64}
	case ablateWindow:
		values = []int{0, 1, 2, 3, 4, 6, 8}
	case ablateRedo:
		values = []int{0, 1, 2, 3, 4}
	case ablateRollback:
		values = []int{1, 2, 4, 8}
	default:
		panic(fmt.Sprintf("harness: unknown ablation dimension %q", dim))
	}

	var out []ablationPoint
	for _, v := range values {
		o := tuned
		switch dim {
		case ablateGroup:
			o.GroupSize = v
		case ablateWindow:
			o.Window = v
		case ablateRedo:
			o.RedoMax = v
		case ablateRollback:
			o.Rollback = v
		}
		meas := p.Measure(o, 28)
		out = append(out, ablationPoint{Value: v, Speedup: seq / meas.TimeSeconds})
	}
	return out
}

// ablationTable renders one dimension's sweep for one workload.
func ablationTable(e *Env, w workload.Workload, dim ablationDim) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation — %s: %s sweep (Par. STATS, 28 threads)", w.Desc().Name, dim),
		Columns: []string{"speedup"},
	}
	best := 0.0
	for _, pt := range ablation(e, w, dim) {
		t.AddRow(fmt.Sprintf("%s=%d", dim, pt.Value), fmtNum(pt.Speedup))
		if pt.Speedup > best {
			best = pt.Speedup
		}
	}
	t.AddNote("all other dimensions held at the autotuned configuration; best %s", fmtNum(best))
	return t
}

// specBehaviorPoint is one window value and the real engine's statistics
// there, summed over the point's runs (Stats.Add): the speculation outcomes.
type specBehaviorPoint struct {
	Window int
	core.Stats
}

// specBehavior runs the real engine across auxiliary-window sizes and
// reports what actually happened — the ground truth behind the cost
// models' acceptance curves. The speculation outcomes are deterministic
// given the seed.
func specBehavior(e *Env, w workload.Workload) []specBehaviorPoint {
	_, tuned, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
	tuned.UseAux = true
	tuned.Workers = 4
	var out []specBehaviorPoint
	for _, win := range []int{0, 1, 2, 4, 8} {
		o := tuned
		o.Window = win
		agg := specBehaviorPoint{Window: win}
		for seed := uint64(0); seed < 3; seed++ {
			_, st := w.RunSTATS(e.Seed+seed, e.RealSize, o)
			agg.Add(st)
		}
		out = append(out, agg)
	}
	return out
}

// specBehaviorTable renders the real-engine window sweep.
func specBehaviorTable(e *Env, w workload.Workload) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation — %s: real-engine speculation behaviour vs window", w.Desc().Name),
		Columns: []string{"matches", "redos", "aborts"},
	}
	for _, pt := range specBehavior(e, w) {
		t.AddRow(fmt.Sprintf("window=%d", pt.Window),
			fmt.Sprintf("%d", pt.Matches), fmt.Sprintf("%d", pt.Redos), fmt.Sprintf("%d", pt.Aborts))
	}
	t.AddNote("3 real runs per point at the autotuned configuration; wider windows buy acceptance at auxiliary-work cost")
	return t
}

// schedulerAblation compares the simulator's list-scheduling policies on
// every benchmark's tuned Par. STATS configuration: FIFO (creation order)
// versus critical-path-first. STATS task graphs have pronounced critical
// chains (the groups' serial interiors), so the policy choice is a real
// system knob worth quantifying.
func schedulerAblation(e *Env) *Table {
	t := &Table{
		Title:   "Ablation — list-scheduling policy (Par. STATS, 28 threads)",
		Columns: []string{"FIFO", "critical-path-first"},
	}
	for _, w := range e.Targets() {
		_, opts, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
		m := w.CostModel(e.Size, opts)
		g := taskgen.Build(taskgen.ParSTATS, m, opts, e.Seed)
		seq := e.SequentialTime(w)
		fifo := seq / platform.SimulateWithPolicy(e.Machine, g, 28, platform.FIFO).Makespan
		cp := seq / platform.SimulateWithPolicy(e.Machine, g, 28, platform.CriticalPathFirst).Makespan
		t.AddRow(w.Desc().Name, fmtNum(fifo), fmtNum(cp))
	}
	t.AddNote("same graphs and configurations; only the ready-queue order differs")
	return t
}

// ablationTables is the ablation experiment: per target the four dimension
// sweeps and, where the target speculates, the real engine's behaviour; then
// the list-scheduling policies.
func ablationTables(e *Env) ([]*Table, error) {
	var ts []*Table
	for _, w := range e.Targets() {
		for _, dim := range []ablationDim{ablateGroup, ablateWindow, ablateRedo, ablateRollback} {
			ts = append(ts, ablationTable(e, w, dim))
		}
		if w.Desc().SupportsSTATS {
			ts = append(ts, specBehaviorTable(e, w))
		}
	}
	return append(ts, schedulerAblation(e)), nil
}

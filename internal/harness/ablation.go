package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// AblationDim names a state-space dimension the ablation sweeps while the
// rest of the (autotuned) configuration is held fixed.
type AblationDim string

// Ablation dimensions.
const (
	AblateGroup    AblationDim = "group"
	AblateWindow   AblationDim = "window"
	AblateRedo     AblationDim = "redo"
	AblateRollback AblationDim = "rollback"
)

// AblationPoint is one swept value and its resulting speedup.
type AblationPoint struct {
	Value   int
	Speedup float64
}

// Ablation sweeps one engine dimension for one workload at 28 threads,
// holding everything else at the autotuned configuration. It quantifies
// the design choices of §3.1: group cardinality (how much TLP is
// liberated), the auxiliary input window (speculation accuracy vs aux
// cost), the redo budget (exploiting nondeterminism for extra original
// states), and the rollback width (how much of the previous group each
// re-execution recomputes).
func Ablation(e *Env, w workload.Workload, dim AblationDim) []AblationPoint {
	_, tuned, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
	tuned.UseAux = true
	p := e.profilerFor(w, taskgen.ParSTATS, 28)
	seq := e.SequentialTime(w)

	var values []int
	switch dim {
	case AblateGroup:
		values = []int{2, 4, 8, 16, 32, 64}
	case AblateWindow:
		values = []int{0, 1, 2, 3, 4, 6, 8}
	case AblateRedo:
		values = []int{0, 1, 2, 3, 4}
	case AblateRollback:
		values = []int{1, 2, 4, 8}
	default:
		panic(fmt.Sprintf("harness: unknown ablation dimension %q", dim))
	}

	var out []AblationPoint
	for _, v := range values {
		o := tuned
		switch dim {
		case AblateGroup:
			o.GroupSize = v
		case AblateWindow:
			o.Window = v
		case AblateRedo:
			o.RedoMax = v
		case AblateRollback:
			o.Rollback = v
		}
		meas := p.Measure(o, 28)
		out = append(out, AblationPoint{Value: v, Speedup: seq / meas.TimeSeconds})
	}
	return out
}

// AblationTable renders one dimension's sweep for one workload.
func AblationTable(e *Env, w workload.Workload, dim AblationDim) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation — %s: %s sweep (Par. STATS, 28 threads)", w.Desc().Name, dim),
		Columns: []string{"speedup"},
	}
	best := 0.0
	for _, pt := range Ablation(e, w, dim) {
		t.AddRow(fmt.Sprintf("%s=%d", dim, pt.Value), F(pt.Speedup))
		if pt.Speedup > best {
			best = pt.Speedup
		}
	}
	t.AddNote("all other dimensions held at the autotuned configuration; best %s", F(best))
	return t
}

// SpecBehaviorPoint is one window value and the real engine's statistics
// there, summed over the point's runs (Stats.Add): the speculation outcomes
// and the work-stealing scheduler's dispatch split — how much of the group
// fan-out crossed workers versus hitting the local-deque fast path.
type SpecBehaviorPoint struct {
	Window int
	core.Stats
}

// SpecBehavior runs the real engine across auxiliary-window sizes and
// reports what actually happened — the ground truth behind the cost
// models' acceptance curves. Statistics are deterministic given the seed.
func SpecBehavior(e *Env, w workload.Workload) []SpecBehaviorPoint {
	_, tuned, _ := e.TunedSTATS(w, taskgen.ParSTATS, 28, profiler.Time)
	tuned.UseAux = true
	tuned.Workers = 4
	var out []SpecBehaviorPoint
	for _, win := range []int{0, 1, 2, 4, 8} {
		o := tuned
		o.Window = win
		agg := SpecBehaviorPoint{Window: win}
		for seed := uint64(0); seed < 3; seed++ {
			_, st := w.RunSTATS(e.Seed+seed, e.RealSize, o)
			agg.Add(st)
		}
		out = append(out, agg)
	}
	return out
}

// SpecBehaviorTable renders the real-engine window sweep.
func SpecBehaviorTable(e *Env, w workload.Workload) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation — %s: real-engine speculation behaviour vs window", w.Desc().Name),
		Columns: []string{"matches", "redos", "aborts", "steals", "local hits"},
	}
	for _, pt := range SpecBehavior(e, w) {
		t.AddRow(fmt.Sprintf("window=%d", pt.Window),
			fmt.Sprintf("%d", pt.Matches), fmt.Sprintf("%d", pt.Redos), fmt.Sprintf("%d", pt.Aborts),
			fmt.Sprintf("%d", pt.Steals), fmt.Sprintf("%d", pt.LocalHits))
	}
	t.AddNote("3 real runs per point at the autotuned configuration; wider windows buy acceptance at auxiliary-work cost; steals/local hits are the sharded scheduler's dispatch split")
	return t
}

// SchedulerAblation compares the simulator's list-scheduling policies on
// every benchmark's tuned Par. STATS configuration: FIFO (creation order)
// versus critical-path-first. STATS task graphs have pronounced critical
// chains (the groups' serial interiors), so the policy choice is a real
// system knob worth quantifying.
func SchedulerAblation(e *Env) *Table {
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
		t.AddRow(w.Desc().Name, F(fifo), F(cp))
	}
	t.AddNote("same graphs and configurations; only the ready-queue order differs")
	return t
}

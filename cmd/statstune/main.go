// Command statstune runs the STATS autotuner (§3.5) for one benchmark on
// the simulated evaluation platform and prints the best configuration it
// finds, the convergence trace, and the resulting speedup.
//
// Usage:
//
//	statstune -workload bodytrack -threads 28 -mode par -goal time -budget 120
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/autotune"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/taskgen"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

func main() {
	name := flag.String("workload", "bodytrack", "benchmark name")
	threads := flag.Int("threads", 28, "hardware threads")
	modeFlag := flag.String("mode", "par", "STATS source program: seq or par")
	goalFlag := flag.String("goal", "time", "optimization goal: time or energy")
	budget := flag.Int("budget", 120, "autotuner evaluation budget")
	seed := flag.Uint64("seed", 0x57A75, "tuner seed")
	flag.Parse()

	w, err := registry.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statstune:", err)
		os.Exit(2)
	}
	modes := map[string]taskgen.Mode{"seq": taskgen.SeqSTATS, "par": taskgen.ParSTATS}
	goals := map[string]profiler.Goal{"time": profiler.Time, "energy": profiler.Energy}
	mode, okMode := modes[*modeFlag]
	goal, okGoal := goals[*goalFlag]
	switch {
	case !okMode:
		refuse("unknown mode %q (want seq or par)", *modeFlag)
	case !okGoal:
		refuse("unknown goal %q (want time or energy)", *goalFlag)
	case *threads < 1:
		refuse("-threads %d: want at least 1", *threads)
	case *budget < 1:
		refuse("-budget %d: want at least 1", *budget)
	}

	p := &profiler.P{
		Machine:   platform.Haswell28(false),
		Threads:   *threads,
		Energy:    energy.Default(),
		W:         w,
		Size:      workload.NativeSize,
		Mode:      mode,
		GraphSeed: *seed,
	}
	s := profiler.BuildSpace(w.Desc().Tradeoffs, int64(*threads))
	fmt.Printf("state space: %d dimensions, %.3g points\n", s.Len(), s.Cardinality())

	res := autotune.Tune(s, p.Objective(s, goal, false), autotune.Options{Budget: *budget, Seed: *seed})
	opts, th := profiler.Decode(s, res.Best)

	baseline := p.Measure(workload.SpecOptions{}, *threads)
	best := p.Measure(opts, th)

	fmt.Printf("evaluations: %d (to within 1%% of best: %d)\n",
		len(res.Trace.Evaluations), res.Trace.EvaluationsToReach(1.01))
	fmt.Printf("best configuration:\n")
	fmt.Printf("  auxiliary code: %v\n", opts.UseAux)
	fmt.Printf("  group size:     %d\n", opts.GroupSize)
	fmt.Printf("  window:         %d\n", opts.Window)
	fmt.Printf("  redo budget:    %d\n", opts.RedoMax)
	fmt.Printf("  rollback:       %d\n", opts.Rollback)
	fmt.Printf("  original TLP threads: %d\n", th)
	fmt.Printf("  aux tradeoff indices: %v\n", opts.TradeoffIdx)
	switch goal {
	case profiler.Energy:
		fmt.Printf("baseline energy: %.1f J, tuned: %.1f J (%.1f%% saved)\n",
			baseline.EnergyJ, best.EnergyJ, 100*(1-best.EnergyJ/baseline.EnergyJ))
	default:
		fmt.Printf("baseline time: %.2f, tuned: %.2f (speedup %.2fx over the parallel baseline)\n",
			baseline.TimeSeconds, best.TimeSeconds, baseline.TimeSeconds/best.TimeSeconds)
	}
}

// refuse reports a flag value statstune cannot run and exits 2.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "statstune: "+format+"\n", args...)
	os.Exit(2)
}

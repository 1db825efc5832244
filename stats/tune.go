package stats

import (
	"time"

	"repro/internal/autotune"
	"repro/internal/profiler"
	"repro/internal/workload"
)

// tuneMaxWorkers bounds the state space's thread dimension: Tune tries
// Options.Workers from 1 to tuneMaxWorkers.
const tuneMaxWorkers = 8

// TuneResult is the autotuner's outcome for a state dependence.
type TuneResult struct {
	// Options is the best configuration found.
	Options Options
	// TradeoffIdx are the chosen auxiliary tradeoff indices, aligned
	// with the tradeoffs passed to Tune.
	TradeoffIdx []int64
	// BestSeconds is the best measured wall-clock time.
	BestSeconds float64
	// BaselineSeconds is the conventional execution's time.
	BaselineSeconds float64
	// Evaluations is the number of configurations profiled.
	Evaluations int
}

// Speedup returns baseline/best.
func (r TuneResult) Speedup() float64 {
	if r.BestSeconds == 0 {
		return 0
	}
	return r.BaselineSeconds / r.BestSeconds
}

// Benchmark runs a candidate configuration on training inputs and returns
// its wall-clock seconds. Tune calls it for every configuration it probes;
// implementations typically construct a StateDependence over the training
// inputs, Run it, and time it.
type Benchmark func(o Options, tradeoffIdx []int64) float64

// Tune explores the state space for the fastest configuration of a state
// dependence, in the spirit of §3.5 but against *real* executions: the
// caller supplies a Benchmark closure over its training inputs. The space
// is the profiler's (§3.3), the one every tuned experiment searches: one
// dimension per tradeoff, aux enablement, window, redo budget, rollback,
// group size, and Workers up to 8. budget is the number of configurations
// to profile.
func Tune(tradeoffs []Tradeoff, bench Benchmark, budget int, seed uint64) TuneResult {
	s := profiler.BuildSpace(tradeoffs, tuneMaxWorkers)
	lower := func(o workload.SpecOptions, threads int) (Options, []int64) {
		return Options{
			UseAux:    o.UseAux,
			GroupSize: o.GroupSize,
			Window:    o.Window,
			RedoMax:   o.RedoMax,
			Rollback:  o.Rollback,
			Workers:   threads,
			Seed:      seed,
		}, o.TradeoffIdx
	}
	res := autotune.Tune(s, profiler.DecodeObjective(s, func(o workload.SpecOptions, threads int) float64 {
		return bench(lower(o, threads))
	}), autotune.Options{Budget: budget, Seed: seed})

	bestOpts, bestIdx := lower(profiler.Decode(s, res.Best))
	baseOpts, baseIdx := lower(profiler.Decode(s, s.Default()))
	return TuneResult{
		Options:         bestOpts,
		TradeoffIdx:     bestIdx,
		BestSeconds:     res.BestVal,
		BaselineSeconds: bench(baseOpts, baseIdx),
		Evaluations:     len(res.Trace.Evaluations),
	}
}

// TimedBenchmark adapts a plain run closure into a Benchmark by measuring
// its wall-clock time.
func TimedBenchmark(run func(o Options, tradeoffIdx []int64)) Benchmark {
	return func(o Options, idx []int64) float64 {
		start := time.Now()
		run(o, idx)
		return time.Since(start).Seconds()
	}
}

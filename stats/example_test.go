package stats_test

import (
	"fmt"
	"math"

	"repro/stats"
)

// The running example: a one-dimensional tracker. Each reading nudges the
// estimate (the state); the auxiliary code rebuilds the estimate from the
// last few readings.

func exampleInputs() []float64 {
	in := make([]float64, 32)
	for i := range in {
		in[i] = math.Sin(0.2 * float64(i))
	}
	return in
}

func exampleCompute(r *stats.Rand, in float64, s float64) (float64, float64) {
	gain := 0.5 + 0.05*r.Norm()
	s += gain * (in - s)
	return s, s
}

func exampleAux(_ *stats.Rand, init float64, recent []float64) float64 {
	s := init
	if len(recent) > 0 {
		s = recent[0]
	}
	for _, in := range recent {
		s += 0.5 * (in - s)
	}
	return s
}

func exampleMatch(spec float64, originals []float64) bool {
	for _, o := range originals {
		if math.Abs(spec-o) < 0.1 {
			return true
		}
	}
	return false
}

// ExampleStateDependence shows the Figure 8 workflow: declare the
// dependence, attach auxiliary code and state methods, configure, start,
// join.
func ExampleStateDependence() {
	sd := stats.NewStateDependence(exampleInputs(), 0.0, exampleCompute)
	sd.SetAuxiliary(exampleAux)
	sd.SetStateOps(nil, exampleMatch)
	sd.Configure(stats.Options{
		UseAux: true, GroupSize: 8, Window: 4, RedoMax: 2, Rollback: 2,
		Workers: 4, Seed: 42,
	})
	sd.Start()
	outputs, _, runStats := sd.Join()

	fmt.Printf("outputs: %d\n", len(outputs))
	fmt.Printf("groups: %d, aborts: %d\n", runStats.Groups, runStats.Aborts)
	// Output:
	// outputs: 32
	// groups: 4, aborts: 0
}

// ExampleStateDependence_RunStream shows streaming commit: outputs arrive
// in input order as they stop being speculative.
func ExampleStateDependence_RunStream() {
	sd := stats.NewStateDependence(exampleInputs(), 0.0, exampleCompute)
	sd.SetAuxiliary(exampleAux)
	sd.SetStateOps(nil, exampleMatch)
	sd.Configure(stats.Options{
		UseAux: true, GroupSize: 8, Window: 4, RedoMax: 2, Rollback: 2,
		Workers: 4, Seed: 42,
	})
	count := 0
	sd.RunStream(func(index int, output float64) { count++ })
	fmt.Printf("streamed: %d\n", count)
	// Output:
	// streamed: 32
}

// ExampleNewTradeoff shows the Tradeoff Interface of Figure 10: the number
// of annealing layers, with values 1..10 and a default of 5.
func ExampleNewTradeoff() {
	layers := stats.NewTradeoff("AnnealingLayers", stats.ConstantTradeoff,
		stats.IntRangeOptions(1, 10, 4))
	fmt.Printf("values: %d, default: %v\n", layers.Opts.MaxIndex(), layers.Default())
	// Output:
	// values: 10, default: 5
}

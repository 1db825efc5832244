package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/racemode"
	"repro/internal/rng"
)

// The observation budget: what an observed group costs over an unobserved
// one on the engine's finest grain, priced by BenchmarkObservedGroup and
// gated by TestObservedRunBudget.

// prefixDep is the bench's overhead shape on the engine: the state is the
// running sum of the inputs 1, 2, 3, …, so the auxiliary code rebuilds it
// exactly from the last input it sees, every boundary matches first time,
// and the compute is one add — a run's wall is the engine's own cost.
func prefixDep() *Dependence[int, uint64, uint64] {
	compute := func(_ *rng.Source, in int, s uint64) (uint64, uint64) {
		s += uint64(in)
		return s, s
	}
	aux := func(_ *rng.Source, init uint64, recent []int) uint64 {
		if len(recent) == 0 {
			return init
		}
		v := uint64(recent[len(recent)-1])
		return init + v*(v+1)/2
	}
	return New(compute, aux, StateOps[uint64]{
		Clone:    func(s uint64) uint64 { return s },
		MatchAny: func(spec uint64, originals []uint64) bool { return slices.Contains(originals, spec) },
	})
}

// prefixOpts is the overhead shape's smallest group: one lane, G=4.
var prefixOpts = Options{UseAux: true, GroupSize: 4, Window: 1, RedoMax: 2, Rollback: 2, Workers: 1}

// BenchmarkObservedGroup prices one group of the overhead shape, warm, on one
// lane, unobserved and observed: the observed row less the unobserved one is
// what the group's events, counters, histograms and clock reads cost.
func BenchmarkObservedGroup(b *testing.B) {
	const n = 1024
	inputs, d := benchInputs(n), prefixDep()
	for _, sub := range []struct {
		name string
		obs  *obs.Observer
	}{{"unobserved", nil}, {"observed", obs.NewObserver(2, 0)}} {
		b.Run(sub.name, func(b *testing.B) {
			opts := prefixOpts
			opts.Obs = sub.obs
			d.Run(inputs, 0, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = uint64(i)
				d.Run(inputs, 0, opts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n/prefixOpts.GroupSize), "ns/group")
		})
	}
}

// observedBudget is the ceiling on observed ÷ unobserved wall for a warm
// overhead-shape run, fastest of each side. Measured on a 2-vCPU guest
// (go1.24.0), twenty test runs each: 1.71–2.10 (typically 1.9) while a group
// paid four clock reads, six histogram adds and a commit add per group, and
// 1.54–1.88 (typically 1.72) since. The bound sits above every reading
// since, so a loaded host does not fail it and an observed path about 15 %
// dearer does. Race instrumentation prices every atomic several times over,
// so under -race the bound is observedBudgetRace: 1.85–2.41 before, 1.78–2.28
// after.
const (
	observedBudget     = 2.0
	observedBudgetRace = 3.5
)

// TestObservedRunBudget gates the observation budget in one process:
// interleaved observed and unobserved runs of the overhead shape, the
// fastest of each, their ratio within the budget.
func TestObservedRunBudget(t *testing.T) {
	reps := 200
	if racemode.Enabled {
		reps = 40 // a run takes milliseconds under the detector
	}
	inputs, d := benchInputs(1024), prefixDep()
	observed := prefixOpts
	observed.Obs = obs.NewObserver(2, 0)
	sides := [2]Options{prefixOpts, observed}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for _, opts := range sides {
		d.Run(inputs, 0, opts) // warm both sides' scratch
	}
	for r := 0; r < reps; r++ {
		for k, opts := range sides {
			opts.Seed = uint64(r)
			t0 := time.Now()
			d.Run(inputs, 0, opts)
			best[k] = min(best[k], time.Since(t0))
		}
	}
	budget := observedBudget
	if racemode.Enabled {
		budget = observedBudgetRace
	}
	ratio := float64(best[1]) / float64(best[0])
	if ratio > budget {
		t.Errorf("observed run %v ÷ unobserved %v = %.2f, budget %.2f", best[1], best[0], ratio, budget)
	}
	t.Logf("observed run %v ÷ unobserved %v = %.2f, budget %.2f", best[1], best[0], ratio, budget)
}

package stats

import (
	"fmt"
	"testing"
)

// BenchmarkFacadeColdRun is the per-call cost every caller in this
// repository pays: a new StateDependence — and with it a fresh engine
// scratch — per run on one shared, always-observing Runtime. 4 096
// near-free inputs in groups of 4 at one worker, so the time is the
// per-group fixed cost: clock readings, ring records, group records and
// output buffers.
func BenchmarkFacadeColdRun(b *testing.B) {
	const n, base = 4096, 7
	inputs := make([]uint64, n)
	for i := range inputs {
		inputs[i] = base + uint64(i)
	}
	compute := func(_ *Rand, in, s uint64) (uint64, uint64) { return s + in, s + in }
	// Input i is base+i, so the last input seen gives the exact prefix sum
	// and every boundary validates.
	aux := func(_ *Rand, init uint64, recent []uint64) uint64 {
		i := recent[len(recent)-1] - base
		return init + (i+1)*base + i*(i+1)/2
	}
	match := func(spec uint64, originals []uint64) bool { return spec == originals[0] }
	rt := NewRuntime(1)
	defer rt.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sd := NewStateDependence(inputs, uint64(0), compute)
		sd.SetAuxiliary(aux).SetStateOps(func(s uint64) uint64 { return s }, match)
		sd.Configure(Options{UseAux: true, GroupSize: 4, Window: 1, RedoMax: 2, Rollback: 2, Workers: 1, Seed: uint64(i)})
		if outs, _, st := Attach(rt, sd).Run(); len(outs) != n || st.Matches != n/4-1 {
			b.Fatalf("%d outputs, %d matches", len(outs), st.Matches)
		}
	}
}

// BenchmarkSchedulerWorkerSweep drives the public API end to end across
// shared-runtime worker counts, mirroring the paper's thread sweeps on the
// real (non-simulated) engine: each iteration is one speculative run whose
// lanes fan out through the shared pool.
func BenchmarkSchedulerWorkerSweep(b *testing.B) {
	inputs := make([]int, 512)
	for i := range inputs {
		inputs[i] = i + 1
	}
	compute := func(_ *Rand, in int, s float64) (int, float64) {
		return in * 2, s + float64(in)
	}
	// inputs[i] = i+1, so the last recent input identifies the group
	// start and the exact prefix sum is closed-form: speculation always
	// validates and the benchmark measures the scheduler, not aborts.
	aux := func(_ *Rand, init float64, recent []int) float64 {
		if len(recent) == 0 {
			return init
		}
		start := float64(recent[len(recent)-1])
		return init + start*(start+1)/2
	}
	match := func(spec float64, originals []float64) bool {
		for _, o := range originals {
			if spec == o {
				return true
			}
		}
		return false
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			rt := NewRuntime(w)
			defer rt.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sd := NewStateDependence(inputs, 0.0, compute)
				sd.SetAuxiliary(aux)
				sd.SetStateOps(nil, match)
				sd.Configure(Options{
					UseAux: true, GroupSize: 32, Window: 1, Seed: uint64(i),
				})
				Attach(rt, sd)
				if outs, _, st := sd.Run(); len(outs) != len(inputs) || st.Aborts != 0 {
					b.Fatalf("run broke: %d outputs, %d aborts", len(outs), st.Aborts)
				}
			}
		})
	}
}

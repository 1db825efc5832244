package stats

import "testing"

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

package stats

import (
	"math"
	"testing"
)

// counter is a toy state: a value accumulated across invocations.
type counter struct{ V float64 }

func computeDouble(r *Rand, in int, s counter) (int, counter) {
	s.V += float64(in)
	return in * 2, s
}

func exactAux(inputs []int) AuxFunc[int, counter] {
	prefix := make([]float64, len(inputs)+1)
	for i, v := range inputs {
		prefix[i+1] = prefix[i] + float64(v)
	}
	return func(r *Rand, init counter, recent []int) counter {
		// Reconstruct the chain position from the recent window (tests
		// only; a real aux would use domain knowledge).
		for start := 0; start <= len(inputs); start++ {
			lo := start - len(recent)
			if lo < 0 {
				continue
			}
			ok := true
			for i, v := range inputs[lo:start] {
				if recent[i] != v {
					ok = false
					break
				}
			}
			if ok {
				return counter{V: init.V + prefix[start]}
			}
		}
		return counter{V: math.NaN()}
	}
}

func inputsN(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i + 1
	}
	return in
}

func TestStartJoin(t *testing.T) {
	inputs := inputsN(12)
	sd := NewStateDependence(inputs, counter{}, computeDouble)
	sd.SetAuxiliary(exactAux(inputs))
	sd.SetStateOps(nil, func(spec counter, originals []counter) bool {
		for _, o := range originals {
			if math.Abs(spec.V-o.V) < 1e-9 {
				return true
			}
		}
		return false
	})
	sd.Configure(Options{UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 1})
	if err := sd.Start(); err != nil {
		t.Fatal(err)
	}
	outs, final, st := sd.Join()
	if len(outs) != 12 {
		t.Fatalf("outputs: %d", len(outs))
	}
	for i, o := range outs {
		if o != (i+1)*2 {
			t.Fatalf("output %d = %d", i, o)
		}
	}
	if final.V != 78 {
		t.Fatalf("final: %v", final.V)
	}
	if st.Matches != 3 || st.Aborts != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	sd := NewStateDependence(inputsN(3), counter{}, computeDouble)
	if err := sd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sd.Start(); err != ErrAlreadyStarted {
		t.Fatalf("second Start: %v", err)
	}
	sd.Join()
}

func TestJoinWithoutStartRunsSynchronously(t *testing.T) {
	sd := NewStateDependence(inputsN(5), counter{}, computeDouble)
	outs, final, _ := sd.Join()
	if len(outs) != 5 || final.V != 15 {
		t.Fatalf("sync run: %d outputs, final %v", len(outs), final.V)
	}
}

func TestNilComputePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStateDependence[int, counter, int](nil, counter{}, nil)
}

func TestNewTradeoffAndOptions(t *testing.T) {
	tr := NewTradeoff("AnnealingLayers", ConstantTradeoff, IntRangeOptions(1, 10, 4))
	if tr.Default().(int64) != 5 {
		t.Fatalf("default: %v", tr.Default())
	}
	e := EnumOptions(1, "a", "b", "c")
	if e.MaxIndex() != 3 || e.Value(1).(string) != "b" {
		t.Fatal("enum options")
	}
	p := PrecisionOptions()
	if p.Value(p.DefaultIndex()).(Precision) != Double {
		t.Fatal("precision default")
	}
}

func TestTuneFindsSpeculation(t *testing.T) {
	// A synthetic benchmark where speculation with a wide-enough window
	// is strictly faster: cost model evaluated analytically so the test
	// is instant and deterministic.
	bench := func(o Options, idx []int64) float64 {
		n := 64.0
		if !o.UseAux || o.GroupSize < 1 || o.GroupSize >= 64 {
			return n // sequential
		}
		groups := math.Ceil(n / float64(o.GroupSize))
		workers := float64(o.Workers)
		if workers < 1 {
			workers = 1
		}
		// Parallel groups plus aux overhead; small windows mismatch.
		perGroup := float64(o.GroupSize) + float64(o.Window)
		wall := perGroup * math.Ceil(groups/workers)
		if o.Window < 2 {
			wall += n / 2 // abort-and-fallback penalty
		}
		return wall
	}
	res := Tune(nil, bench, 200, 7)
	if !res.Options.UseAux {
		t.Fatal("tuner should enable speculation")
	}
	if res.Options.Window < 2 {
		t.Fatalf("tuner kept a mismatching window: %+v", res.Options)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("speedup: %v", res.Speedup())
	}
	if res.Evaluations != 200 {
		t.Fatalf("evaluations: %d", res.Evaluations)
	}
}

func TestTuneWithTradeoffs(t *testing.T) {
	layers := NewTradeoff("Layers", ConstantTradeoff, IntRangeOptions(1, 10, 9))
	bench := func(o Options, idx []int64) float64 {
		// Cheaper aux tradeoff is better as long as it's >= index 2.
		cost := 10 + float64(idx[0])
		if idx[0] < 2 {
			cost += 100
		}
		return cost
	}
	res := Tune([]Tradeoff{layers}, bench, 150, 3)
	if res.TradeoffIdx[0] != 2 {
		t.Fatalf("tradeoff index: %d", res.TradeoffIdx[0])
	}
}

func TestTuneSearchesProfilerSpace(t *testing.T) {
	// Tune searches the profiler's state space, whose lists hold group 32
	// and window 3: this landscape's one minimum.
	bench := func(o Options, _ []int64) float64 {
		cost := math.Abs(math.Log2(float64(max(o.GroupSize, 1)))-5) + math.Abs(float64(o.Window-3))
		if !o.UseAux {
			cost += 10
		}
		return cost
	}
	res := Tune(nil, bench, 200, 5)
	if !res.Options.UseAux || res.Options.GroupSize != 32 || res.Options.Window != 3 || res.BestSeconds != 0 {
		t.Fatalf("best %+v at %v, want aux, group 32, window 3 at 0", res.Options, res.BestSeconds)
	}
}

func TestTimedBenchmark(t *testing.T) {
	b := TimedBenchmark(func(o Options, idx []int64) {})
	if v := b(Options{}, nil); v < 0 {
		t.Fatalf("negative time: %v", v)
	}
}

func TestSimulationFacade(t *testing.T) {
	m := Haswell28(false)
	g := &TaskGraph{}
	for i := 0; i < 28; i++ {
		g.Add(1)
	}
	r := Simulate(m, g, 28)
	if r.Makespan != 1 {
		t.Fatalf("makespan: %v", r.Makespan)
	}
	if e := DefaultEnergyModel().Energy(r); e <= 0 {
		t.Fatalf("energy: %v", e)
	}
}

// TestReservationsProtocolThroughFacade runs a slotted dependence through
// the public API under ProtocolReservations with the footprint oracle on,
// and requires byte-identical results to the sequential formulation plus
// actual speculative commits.
func TestReservationsProtocolThroughFacade(t *testing.T) {
	const slots = 4
	compute := func(r *Rand, in int, s []float64) (int, []float64) {
		s[in%slots] += float64(in)
		return in * 3, s
	}
	build := func() *StateDependence[int, []float64, int] {
		sd := NewStateDependence(inputsN(32), make([]float64, slots), compute)
		sd.SetStateOps(func(s []float64) []float64 {
			return append([]float64(nil), s...)
		}, nil)
		sd.SetReserve(ReserveOps[int, []float64]{
			NumSlots:  func(initial []float64) int { return len(initial) },
			Footprint: func(in int, _ []float64) []int { return []int{in % slots} },
			Merge: func(dst, src []float64, touched []int) []float64 {
				for _, sl := range touched {
					dst[sl] = src[sl]
				}
				return dst
			},
			Touched: func(before, after []float64) []int {
				var out []int
				for i := range before {
					if before[i] != after[i] {
						out = append(out, i)
					}
				}
				return out
			},
		})
		return sd
	}

	seq := build().Configure(Options{Protocol: ProtocolReservations, Seed: 7})
	seqOuts, seqFinal, _ := seq.Run()

	spec := build().Configure(Options{
		UseAux: true, Protocol: ProtocolReservations, FootprintCheck: true,
		GroupSize: 8, Workers: 4, Seed: 7,
	})
	outs, final, st := spec.Run()

	for i := range seqOuts {
		if outs[i] != seqOuts[i] {
			t.Fatalf("output %d: got %d, want %d", i, outs[i], seqOuts[i])
		}
	}
	for i := range seqFinal {
		if final[i] != seqFinal[i] {
			t.Fatalf("final slot %d: got %v, want %v", i, final[i], seqFinal[i])
		}
	}
	if st.SpeculativeCommits == 0 {
		t.Fatalf("no speculative commits under reservations: %+v", st)
	}
	if st.FootprintViolations != 0 {
		t.Fatalf("oracle flagged a sound footprint: %+v", st)
	}
}

// TestParseProtocol round-trips the protocol names.
func TestParseProtocol(t *testing.T) {
	if p, ok := ParseProtocol("reservations"); !ok || p != ProtocolReservations {
		t.Fatalf("ParseProtocol(reservations) = %v, %v", p, ok)
	}
	if p, ok := ParseProtocol("aux"); !ok || p != ProtocolAux {
		t.Fatalf("ParseProtocol(aux) = %v, %v", p, ok)
	}
	if _, ok := ParseProtocol("bogus"); ok {
		t.Fatal("ParseProtocol accepted an unknown name")
	}
}

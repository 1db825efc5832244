package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Engine micro-benchmarks: overhead of the speculation machinery itself
// (grouping, cloning, validation bookkeeping) around a near-free compute.

func cheapCompute(r *rng.Source, in int, s walkState) (int, walkState) {
	s.V += float64(in)
	return in, s
}

// sumAux rebuilds the walk state exactly whenever the window covers every
// input before the group: spec = init + sum(recent). Unlike exactAuxFor
// it needs no global positions.
func sumAux(_ *rng.Source, init walkState, recent []int) walkState {
	s := init
	for _, v := range recent {
		s.V += float64(v)
	}
	return s
}

func benchInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i + 1
	}
	return in
}

func BenchmarkEngineSequential(b *testing.B) {
	inputs := benchInputs(1024)
	d := New(cheapCompute, nil, walkOps())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(inputs, walkState{}, Options{Seed: uint64(i)})
	}
}

func BenchmarkEngineSpeculative(b *testing.B) {
	inputs := benchInputs(1024)
	d := New(cheapCompute, sumAux, walkOps())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 64, Window: 64, RedoMax: 1, Rollback: 4,
			Workers: 8, Seed: uint64(i),
		})
	}
}

// BenchmarkEngineGroupFanout mirrors the paper's thread sweeps on the
// engine's hottest path: one speculative run per iteration, fanning its
// groups out through the sharded scheduler at each worker count. Compare
// against internal/pool's single-channel baseline benchmarks for the
// scheduler's contribution.
func BenchmarkEngineGroupFanout(b *testing.B) {
	inputs := benchInputs(1024)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			p := pool.New(workers)
			defer p.Close()
			d := New(cheapCompute, sumAux, walkOps())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Run(inputs, walkState{}, Options{
					UseAux: true, GroupSize: 32, Window: 32, RedoMax: 1,
					Rollback: 4, Pool: p, Seed: uint64(i),
				})
			}
		})
	}
}

// BenchmarkEngineSubmitBatchVsLoop isolates the fan-out operation itself:
// the same speculative run shapes, shared pool, measured end to end — the
// batch path is what Run uses; the per-task loop is the pre-SubmitBatch
// behaviour approximated by tiny group sizes (more, smaller batches).
func BenchmarkEngineSubmitBatchVsLoop(b *testing.B) {
	inputs := benchInputs(1024)
	for _, g := range []int{8, 64} {
		b.Run(fmt.Sprintf("group=%d", g), func(b *testing.B) {
			p := pool.New(4)
			defer p.Close()
			d := New(cheapCompute, sumAux, walkOps())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Run(inputs, walkState{}, Options{
					UseAux: true, GroupSize: g, Window: g, Pool: p, Seed: uint64(i),
				})
			}
		})
	}
}

// BenchmarkEngineControlledSched prices the controlled scheduler against
// the nil fast path BenchmarkEngineSpeculative measures: with Sched nil
// every decision point costs one predictable branch; with a controller
// attached every admission serializes through the gate. The controlled
// number is the price of a systematic-testing run, not a production
// configuration.
func BenchmarkEngineControlledSched(b *testing.B) {
	inputs := benchInputs(1024)
	d := New(cheapCompute, sumAux, walkOps())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 64, Window: 64, RedoMax: 1, Rollback: 4,
			Workers: 8, Seed: uint64(i), Sched: sched.NewRandom(uint64(i)),
		})
	}
}

// BenchmarkEngineReservations prices the deterministic-reservations
// protocol on the same near-free compute as the aux benchmarks, in its
// two shapes: whole-state (nil ReserveOps — one winner per round, the
// protocol's overhead floor) and slotted (8 disjoint slots, so rounds
// commit many winners and the reservation table earns its keep).
func BenchmarkEngineReservations(b *testing.B) {
	inputs := benchInputs(1024)
	opts := Options{
		UseAux: true, Protocol: ProtocolReservations,
		GroupSize: 64, Workers: 8,
	}
	b.Run("whole-state", func(b *testing.B) {
		d := New(cheapCompute, nil, walkOps())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i)
			d.Run(inputs, walkState{}, o)
		}
	})
	b.Run("slotted", func(b *testing.B) {
		d := New(benchSlotCompute, nil, benchSlotOps()).WithReserve(ReserveOps[int, []float64]{
			NumSlots:  func(s []float64) int { return len(s) },
			Footprint: func(in int, _ []float64) []int { return []int{in % 8} },
			Merge: func(dst, src []float64, slots []int) []float64 {
				for _, sl := range slots {
					dst[sl] = src[sl]
				}
				return dst
			},
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i)
			d.Run(inputs, make([]float64, 8), o)
		}
	})
}

func benchSlotCompute(r *rng.Source, in int, s []float64) (int, []float64) {
	s[in%8] += float64(in)
	return in, s
}

func benchSlotOps() StateOps[[]float64] {
	return StateOps[[]float64]{
		Clone: func(s []float64) []float64 {
			c := make([]float64, len(s))
			copy(c, s)
			return c
		},
		MatchAny: func([]float64, [][]float64) bool { return false },
	}
}

func BenchmarkRNGSplit(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Split()
	}
}

func BenchmarkRNGNorm(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

// fingerprintWalkOps is walkOps plus the hash-first prefilter: the walk
// benchmarks' compute is noise-free, so an accepted speculative state is
// bit-equal to an original and the value's bits are a contract-clean
// digest.
func fingerprintWalkOps() StateOps[walkState] {
	ops := walkOps()
	ops.Fingerprint = func(s walkState) uint64 { return math.Float64bits(s.V) }
	return ops
}

// BenchmarkEngineWarmRun is the allocation-gate shape: a reused
// Dependence on a shared pool — the warm path where every run-scoped
// buffer (group records, lane sources, originals, output staging) comes
// from the dependence's recycled scratch. Compare BenchmarkEngineColdRun
// (fresh Dependence per run, same work): warm must hold a small fraction
// of cold allocs/op (TestWarmRunAllocations enforces ≤20%).
func BenchmarkEngineWarmRun(b *testing.B) {
	inputs := benchInputs(32)
	base := Options{UseAux: true, GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4}
	b.Run("aux", func(b *testing.B) {
		p := pool.New(4)
		defer p.Close()
		d := New(cheapCompute, sumAux, fingerprintWalkOps())
		opts := base
		opts.Pool = p
		d.Run(inputs, walkState{}, opts) // prime the recycled scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i)
			d.Run(inputs, walkState{}, o)
		}
	})
	b.Run("reservations", func(b *testing.B) {
		p := pool.New(4)
		defer p.Close()
		d := New(benchSlotCompute, nil, benchSlotOps()).WithReserve(ReserveOps[int, []float64]{
			NumSlots:  func(s []float64) int { return len(s) },
			Footprint: func(in int, _ []float64) []int { return []int{in % 8} },
			Merge: func(dst, src []float64, slots []int) []float64 {
				for _, sl := range slots {
					dst[sl] = src[sl]
				}
				return dst
			},
		})
		opts := base
		opts.Protocol = ProtocolReservations
		opts.Pool = p
		d.Run(inputs, make([]float64, 8), opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i)
			d.Run(inputs, make([]float64, 8), o)
		}
	})
}

// BenchmarkEngineColdRun is BenchmarkEngineWarmRun/aux with a fresh
// Dependence every iteration: the seed path a one-shot caller pays, and
// the denominator of the warm-path allocation gate.
func BenchmarkEngineColdRun(b *testing.B) {
	inputs := benchInputs(32)
	p := pool.New(4)
	defer p.Close()
	opts := Options{UseAux: true, GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4, Pool: p}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(cheapCompute, sumAux, fingerprintWalkOps())
		o := opts
		o.Seed = uint64(i)
		d.Run(inputs, walkState{}, o)
	}
}

// BenchmarkEngineGrouping drives the grouping-dominant shape: 1024 inputs
// in 128 groups of 8 around a near-free compute, warm. Input groups are
// (start, end) index pairs into the caller's slice — never copied — so
// allocs/op here prices pure per-group machinery (recycled group records,
// latches and lane sources), not data movement.
func BenchmarkEngineGrouping(b *testing.B) {
	inputs := benchInputs(1024)
	p := pool.New(4)
	defer p.Close()
	d := New(cheapCompute, sumAux, fingerprintWalkOps())
	opts := Options{UseAux: true, GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4, Pool: p}
	d.Run(inputs, walkState{}, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts
		o.Seed = uint64(i)
		d.Run(inputs, walkState{}, o)
	}
}

// BenchmarkMatchAnyFingerprint prices one acceptance attempt on the
// hash-first path: a fingerprint hit falls through to the deep MatchAny
// scan, a miss rejects on the prefilter probe alone. Both must be
// allocation-free — they run inside every boundary validation.
func BenchmarkMatchAnyFingerprint(b *testing.B) {
	scr := New(cheapCompute, nil, fingerprintWalkOps()).getScratch()
	var st Stats
	scr.st, scr.hashFirst = &st, true
	for i := 0; i < 8; i++ {
		scr.addOriginal(walkState{V: float64(i)})
	}
	b.Run("hit", func(b *testing.B) {
		spec := walkState{V: 7}
		fp := math.Float64bits(spec.V)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scr.accepts(spec, fp)
		}
	})
	b.Run("miss", func(b *testing.B) {
		spec := walkState{V: 99.5}
		fp := math.Float64bits(spec.V)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scr.accepts(spec, fp)
		}
	})
}

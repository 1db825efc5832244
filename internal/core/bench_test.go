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
// two shapes: whole-state (nil ReserveOps — one winner per round, so only
// group 0 runs rounds and the rest is the conventional tail) and slotted
// (8 disjoint slots, so rounds commit many winners and the reservation table
// earns its keep). fine is the benchmark's shape — groups of 8 on two lanes
// of a shared pool — where a fan-out cannot win its cost back and every group
// after the first goes conventional: read it against
// BenchmarkEngineSequential, the same 1024 near-free inputs run plainly.
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
		d := benchSlotDep()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i)
			d.Run(inputs, make([]float64, 8), o)
		}
	})
	b.Run("fine", func(b *testing.B) {
		p := pool.New(2)
		defer p.Close()
		d := benchSlotDep()
		o := opts
		o.GroupSize, o.Workers, o.Pool = 8, 2, p
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Seed = uint64(i)
			d.Run(inputs, make([]float64, 8), o)
		}
	})
}

func benchSlotCompute(r *rng.Source, in int, s []float64) (int, []float64) {
	s[in%8] += float64(in)
	return in, s
}

// benchSlotDep is the slotted dependence of every slotted benchmark and
// allocation ceiling: 8 disjoint slots, input i touches slot i%8, and a
// MatchAny that never accepts.
func benchSlotDep() *Dependence[int, []float64, int] {
	ops, reserve := SlotOps[int, float64](func(in int) []int { return []int{in % 8} }, nil, nil)
	ops.MatchAny = func([]float64, [][]float64) bool { return false }
	return New(benchSlotCompute, nil, ops).WithReserve(reserve)
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

// The allocation-gated benchmarks. Each measured body is one helper that
// the benchmark times and the package's ceiling test (recycle_test.go)
// hands to testing.AllocsPerRun, so a benchmark cannot drift from its gate.

// benchLoop is the timed loop of the gated benchmarks.
func benchLoop(b *testing.B, body func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// gatedRun returns one group-8 run over n near-free inputs on the shared
// pool p (so neither side hides a private worker-pool construction), with
// a fresh seed per call. Warm reuses one primed Dependence; otherwise every
// call builds a fresh one, as every caller in the repository does. Either
// way every run-scoped buffer (group records, lane sources, originals,
// output staging) comes from the recycled scratch of the last run of its
// type, unless drainScratch emptied the store first: the truly cold path.
// workers 0 takes the run's width from the pool.
func gatedRun[S any](p *pool.Pool, n int, proto Protocol, workers int, newDep func() *Dependence[int, S, int], initial func() S, warm bool) func() {
	inputs := benchInputs(n)
	opts := Options{UseAux: true, Protocol: proto, GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4, Workers: workers, Pool: p}
	d := newDep()
	if warm {
		d.Run(inputs, initial(), opts) // prime the type's recycled scratch
	}
	return func() {
		if !warm {
			d = newDep()
		}
		opts.Seed++
		d.Run(inputs, initial(), opts)
	}
}

// auxRun is gatedRun under the aux protocol on the fingerprinted walk.
func auxRun(p *pool.Pool, n int, warm bool) func() {
	return gatedRun(p, n, ProtocolAux, 0,
		func() *Dependence[int, walkState, int] { return New(cheapCompute, sumAux, fingerprintWalkOps()) },
		func() walkState { return walkState{} }, warm)
}

// reservationsRun is gatedRun under the reservations protocol on the
// 8-slot state; the caller-owned initial state is part of the run's cost.
// It is pinned to one lane, the fixed round shape its allocation ceiling is
// set on: wider, the host's compute grain decides where its rounds end and
// its conventional tail begins.
func reservationsRun(p *pool.Pool, warm bool) func() {
	return gatedRun(p, 32, ProtocolReservations, 1, benchSlotDep,
		func() []float64 { return make([]float64, 8) }, warm)
}

// BenchmarkEngineWarmRun is the recycled hot path of both protocols over
// 32 inputs, on one reused Dependence and (fresh) on a new Dependence per
// run. Compare BenchmarkEngineColdRun; TestWarmRunAllocations holds the
// ceilings of all three.
func BenchmarkEngineWarmRun(b *testing.B) {
	p := pool.New(4)
	defer p.Close()
	b.Run("aux", func(b *testing.B) { benchLoop(b, auxRun(p, 32, true)) })
	b.Run("aux/fresh", func(b *testing.B) { benchLoop(b, auxRun(p, 32, false)) })
	b.Run("reservations", func(b *testing.B) { benchLoop(b, reservationsRun(p, true)) })
	b.Run("reservations/fresh", func(b *testing.B) { benchLoop(b, reservationsRun(p, false)) })
}

// BenchmarkEngineColdRun is BenchmarkEngineWarmRun/aux/fresh after
// drainScratch, untimed, every iteration — the first run of its type: one
// scratch, one slab of group records and one output backing array per run,
// whatever the group count. Every iteration collects twice, so give it a
// -benchtime of a few thousand iterations (Nx) rather than seconds.
func BenchmarkEngineColdRun(b *testing.B) {
	p := pool.New(4)
	defer p.Close()
	body := auxRun(p, 32, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		drainScratch()
		b.StartTimer()
		body()
	}
}

// BenchmarkEngineGrouping drives the grouping-dominant shape: 1024 inputs
// in 128 groups of 8 around a near-free compute, warm. Input groups are
// (start, end) index pairs into the caller's slice — never copied — so
// allocs/op here prices pure per-group machinery (recycled group records,
// latches and lane sources), not data movement.
func BenchmarkEngineGrouping(b *testing.B) {
	p := pool.New(4)
	defer p.Close()
	benchLoop(b, auxRun(p, 1024, true))
}

// BenchmarkEngineOneLane is BenchmarkEngineGrouping at Workers: 1 on a shared
// one-worker pool, the arrangement of the benchmark's overhead workload: the
// caller is the run's only lane, so a CPU profile of it holds no pool
// dispatch, no wake-up and no park.
func BenchmarkEngineOneLane(b *testing.B) {
	p := pool.New(1)
	defer p.Close()
	benchLoop(b, gatedRun(p, 1024, ProtocolAux, 1,
		func() *Dependence[int, walkState, int] { return New(cheapCompute, sumAux, fingerprintWalkOps()) },
		func() walkState { return walkState{} }, true))
}

// ringFold is the near-free update of the in-place benchmarks on the
// reference-typed box of ownership_test.go, its slice a fixed 64-word ring: a
// Clone costs two allocations and 0.5 KB, an update none.
func ringFold(in int, b *box) int {
	b.seen[in%len(b.seen)] += in
	b.v += float64(in)
	return in
}

// inPlaceRun is gatedRun, warm, over the ring with acceptance by construction
// — the shape of the benchmark's fine programs — with a compute that updates
// the state it is handed, or (functional) clones it first as they used to.
func inPlaceRun(p *pool.Pool, n int, functional bool) func() {
	compute := func(_ *rng.Source, in int, b *box) (int, *box) {
		if functional {
			b = cloneBox(b)
		}
		return ringFold(in, b), b
	}
	aux := func(_ *rng.Source, init *box, recent []int) *box {
		for _, in := range recent {
			ringFold(in, init)
		}
		return init
	}
	return gatedRun(p, n, ProtocolAux, 0,
		func() *Dependence[int, *box, int] { return New(compute, aux, StateOps[*box]{Clone: cloneBox}) },
		func() *box { return &box{seen: make([]int, 64)} }, true)
}

// BenchmarkEngineInPlace prices the state copies of a run of 128 groups of 8
// over a reference-typed state: the engine's one per group, and with the
// functional compute one more per input. TestHotPathAllocCeilings holds the
// in-place body to the former.
func BenchmarkEngineInPlace(b *testing.B) {
	p := pool.New(4)
	defer p.Close()
	b.Run("in-place", func(b *testing.B) { benchLoop(b, inPlaceRun(p, 1024, false)) })
	b.Run("functional", func(b *testing.B) { benchLoop(b, inPlaceRun(p, 1024, true)) })
}

// acceptProbe returns one acceptance attempt of a speculative state of
// value v against eight originals 0..7 on the hash-first path: v=7 hits
// the fingerprint prefilter and falls through to the deep MatchAny scan,
// v=99.5 misses and rejects on the probe alone.
func acceptProbe(v float64) func() {
	scr := New(cheapCompute, nil, fingerprintWalkOps()).getScratch()
	scr.st, scr.hashFirst = new(Stats), true
	for i := 0; i < 8; i++ {
		scr.addOriginal(walkState{V: float64(i)})
	}
	spec := walkState{V: v}
	fp := math.Float64bits(v)
	return func() { scr.accepts(spec, fp) }
}

// BenchmarkMatchAnyFingerprint prices one acceptance attempt, hit and
// miss. Both run inside every boundary validation and must not allocate.
func BenchmarkMatchAnyFingerprint(b *testing.B) {
	b.Run("hit", func(b *testing.B) { benchLoop(b, acceptProbe(7)) })
	b.Run("miss", func(b *testing.B) { benchLoop(b, acceptProbe(99.5)) })
}

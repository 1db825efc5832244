package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/pool"
	"repro/internal/rng"
)

// Recycling regression tests: the warm engine path must stay
// allocation-light (the run-scoped buffers come from the scratch pool of the
// run's instantiation, not the heap), recycled state must never leak between
// concurrent runs — on one Dependence or on several of one type — and a
// parked scratch must not keep its last Dependence alive.

// allocsPerRun measures the allocations of one call of body, the measured
// loop body of a gated benchmark in bench_test.go.
func allocsPerRun(t *testing.T, body func()) float64 {
	t.Helper()
	return testing.AllocsPerRun(50, body)
}

// coldAllocsPerRun is allocsPerRun of body as the first run of its type:
// each call follows drainScratch.
func coldAllocsPerRun(t *testing.T, body func()) float64 {
	t.Helper()
	return allocsAfter(drainScratch, body)
}

// collectedAllocsPerRun is allocsPerRun of body right after two garbage
// collections, which emptied a sync.Pool and must not empty the store.
func collectedAllocsPerRun(t *testing.T, body func()) float64 {
	t.Helper()
	return allocsAfter(func() { runtime.GC(); runtime.GC() }, body)
}

// allocsAfter is the mean allocations of body over runs calls, each after
// prep, whose own allocations are not counted.
func allocsAfter(prep, body func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	const runs = 20
	var before, after runtime.MemStats
	var mallocs uint64
	for range runs {
		prep()
		runtime.ReadMemStats(&before)
		body()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs) / runs
}

// newAllocs is what building gatedRun's Dependence allocates by itself.
func newAllocs[S any](t *testing.T, newDep func() *Dependence[int, S, int]) float64 {
	return allocsPerRun(t, func() { sinkDep = newDep() })
}

var sinkDep any

// TestWarmRunAllocations gates the bodies of BenchmarkEngineWarmRun and
// BenchmarkEngineColdRun with absolute allocs/run ceilings on what each
// path is accountable for. A warm aux run allocates what it must return (it
// measures 5); a run on a fresh Dependence is as warm, plus what New itself
// allocates; the truly cold one — the first run of its type, after
// drainScratch — builds its scratch once whatever the group count (24 at
// these 4 groups), and warm stays below it. The reservations protocol
// clones and returns caller-owned state every round, so its floor is higher:
// pinned to one lane no group pays for rounds once anything is timed, so
// group 0 of the four runs rounds and groups 1 and 2–3 are conventional
// streaks (one clone and one source each), and the warm run measures 34.
func TestWarmRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	p := pool.New(4)
	defer p.Close()

	t.Run("aux", func(t *testing.T) {
		fresh := auxRun(p, 32, false)
		cold := coldAllocsPerRun(t, fresh)
		warm := allocsPerRun(t, auxRun(p, 32, true))
		built := allocsPerRun(t, fresh)
		dep := newAllocs(t, func() *Dependence[int, walkState, int] { return New(cheapCompute, sumAux, fingerprintWalkOps()) })
		t.Logf("aux: warm %.1f allocs/run, fresh Dependence %.1f (New %.1f), cold %.1f", warm, built, dep, cold)
		if warm > 8 || cold > 28 || warm >= cold {
			t.Fatalf("aux run allocates %.1f/run warm and %.1f cold; ceilings are 8 and 28, and warm below cold", warm, cold)
		}
		if built > warm+dep {
			t.Fatalf("aux run on a fresh Dependence allocates %.1f/run; ceiling is warm %.1f plus New's %.1f", built, warm, dep)
		}
	})

	t.Run("reservations", func(t *testing.T) {
		fresh := reservationsRun(p, false)
		cold := coldAllocsPerRun(t, fresh)
		warm := allocsPerRun(t, reservationsRun(p, true))
		built := allocsPerRun(t, fresh)
		dep := newAllocs(t, benchSlotDep)
		t.Logf("reservations: warm %.1f allocs/run (%.0f%% of cold %.1f), fresh Dependence %.1f (New %.1f)", warm, 100*warm/cold, cold, built, dep)
		if warm > 38 || warm >= cold {
			t.Fatalf("warm reservations run allocates %.1f/run; ceilings are 38 and below the %.1f cold path", warm, cold)
		}
		if built > warm+dep {
			t.Fatalf("reservations run on a fresh Dependence allocates %.1f/run; ceiling is warm %.1f plus New's %.1f", built, warm, dep)
		}
	})
}

// TestColdRunAllocationsDoNotScaleWithGroups is the cold path's other gate:
// the first run of its type builds its group records from one slab and its
// output buffers from one backing array, so a healthy run of 256 groups
// allocates what one of 32 does (give or take a size-class step), where one
// record and log G buffer growths per group used to. A cold run must still
// build its scratch — the record, its group slab and pointer slice, the
// output backing and four per-group arrays, 8 allocations a warm run of the
// same shape does not make: otherwise drainScratch no longer empties the
// store, and the gate measures the warm path.
func TestColdRunAllocationsDoNotScaleWithGroups(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	run := func(groups int) func() {
		inputs := benchInputs(16 * groups)
		// The window covers every earlier input, so sumAux is exact and every
		// boundary matches.
		opts := Options{UseAux: true, GroupSize: 16, Window: len(inputs), RedoMax: 1, Rollback: 4, Pool: p}
		return func() {
			opts.Seed++
			_, _, st := New(cheapCompute, sumAux, fingerprintWalkOps()).Run(inputs, walkState{}, opts)
			if st.Matches != groups-1 {
				t.Fatalf("%d groups: %d matches", groups, st.Matches)
			}
		}
	}
	few, many := coldAllocsPerRun(t, run(32)), coldAllocsPerRun(t, run(256))
	warm := allocsPerRun(t, run(256))
	t.Logf("cold aux run: %.1f allocs at 32 groups, %.1f at 256 (warm %.1f)", few, many, warm)
	if many-few > 4 {
		t.Fatalf("cold run allocates %.1f at 32 groups and %.1f at 256: per-group allocations are back", few, many)
	}
	if many-warm < 8 {
		t.Fatalf("cold run allocates %.1f at 256 groups, warm %.1f: drainScratch left the store full", many, warm)
	}
}

// TestWarmRunSurvivesCollections: the store is not a sync.Pool, so a warm
// run stays warm across garbage collections — under both protocols, a run
// right after two collections allocates what any warm run does (within one
// allocation: both are means, and the worker pool's own bookkeeping
// allocates now and then), not the cold path's scratch.
func TestWarmRunSurvivesCollections(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	for _, c := range []struct {
		name string
		body func()
	}{
		{"aux", auxRun(p, 32, true)},
		{"reservations", reservationsRun(p, true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			warm := allocsAfter(func() {}, c.body)
			collected := collectedAllocsPerRun(t, c.body)
			t.Logf("%s: warm %.2f allocs/run, %.2f after two collections", c.name, warm, collected)
			if collected > warm+1 {
				t.Fatalf("a run after two collections allocates %.2f, a warm run %.2f: the store was emptied", collected, warm)
			}
		})
	}
}

// TestHotPathAllocCeilings gates the bodies of BenchmarkEngineGrouping,
// BenchmarkEngineInPlace/in-place — 128 groups clone a two-allocation state
// once each, plus the initial state and what a warm run returns; it measures
// 261 — and BenchmarkMatchAnyFingerprint.
func TestHotPathAllocCeilings(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	for _, c := range []struct {
		name    string
		ceiling float64
		body    func()
	}{
		{"EngineGrouping", 16, auxRun(p, 1024, true)},
		{"EngineInPlace/in-place", 2*128 + 12, inPlaceRun(p, 1024, false)},
		{"MatchAnyFingerprint/hit", 0, acceptProbe(7)},
		{"MatchAnyFingerprint/miss", 0, acceptProbe(99.5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := allocsPerRun(t, c.body); got > c.ceiling {
				t.Errorf("%.1f allocs/run, ceiling %v", got, c.ceiling)
			}
		})
	}
}

// TestGroupRunSize pins the group record at 384 B with word-sized I, S and
// O. The first run of a type, and any run with more groups than its recycled
// scratch holds, allocates one slab of them, one record per group, so every
// word added is bytes per group on every such run — and cache lines on every
// run, warm or cold.
func TestGroupRunSize(t *testing.T) {
	if got := unsafe.Sizeof(groupRun[uint64, uint64, uint64]{}); got > 384 {
		t.Fatalf("groupRun is %d B, ceiling 384", got)
	}
}

// TestRecycledScratchConcurrentRuns hammers one shared Dependence (and
// one shared abort-heavy Dependence) from many goroutines across both
// protocols and the sequential path. Every run must produce the exact
// deterministic outputs — a recycled buffer leaking between concurrent
// runs, or a released scratch still referenced by a straggler lane,
// shows up as corrupt outputs here and as a report under -race.
func TestRecycledScratchConcurrentRuns(t *testing.T) {
	inputs := seqInputs(64)
	want := wantOutputs(inputs)
	p := pool.New(8)
	defer p.Close()
	dGood := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	dAbort := New(deterministicCompute, badAux, walkOps()) // every validation fails → abort → fallback

	const goroutines = 8
	runs := 12
	if testing.Short() {
		runs = 3
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				o := Options{
					GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4,
					Pool: p, Seed: uint64(g)<<32 | uint64(i),
				}
				d := dGood
				switch (g + i) % 4 {
				case 0: // aux speculation, validations succeed
					o.UseAux = true
				case 1: // deterministic reservations
					o.UseAux = true
					o.Protocol = ProtocolReservations
				case 2: // aux speculation, every group aborts into fallback
					o.UseAux = true
					d = dAbort
				case 3: // sequential path interleaved with the recyclers
				}
				outs, final, _ := d.Run(inputs, walkState{}, o)
				if len(outs) != len(want) {
					t.Errorf("g%d run %d: %d outputs, want %d", g, i, len(outs), len(want))
					return
				}
				for k := range want {
					if outs[k] != want[k] {
						t.Errorf("g%d run %d (mode %d): output[%d] = %d, want %d",
							g, i, (g+i)%4, k, outs[k], want[k])
						return
					}
				}
				var wantV float64
				for _, in := range inputs {
					wantV += float64(in)
				}
				if final.V != wantV {
					t.Errorf("g%d run %d: final state %v, want %v", g, i, final.V, wantV)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRecycledScratchAcrossDependences runs two Dependences of one
// instantiation — different computes, auxiliary codes, input lengths and
// group sizes — alternately on one goroutine and then from many at once,
// across aux speculation (healthy and aborting), reservations and the
// sequential path. They draw their scratch from one pool, so a scratch still
// bound to the other Dependence, or a buffer sized or filled by the other's
// run, shows up here as an output or final state that differs from the
// dependence's own sequential answer, and as a report under -race.
func TestRecycledScratchAcrossDependences(t *testing.T) {
	type subject struct {
		good, abort *Dependence[int, walkState, int]
		inputs      []int
		group       int
		want        []int
		final       walkState
	}
	scaled := func(k, n, group int) subject {
		compute := func(_ *rng.Source, in int, s walkState) (int, walkState) {
			s.V += float64(k * in)
			return k*in + int(s.V), s
		}
		aux := func(_ *rng.Source, init walkState, recent []int) walkState {
			for _, in := range recent {
				init.V += float64(k * in)
			}
			return init
		}
		c := subject{
			good:   New(compute, aux, walkOps()),
			abort:  New(compute, badAux, walkOps()),
			inputs: seqInputs(n),
			group:  group,
		}
		c.want, c.final, _ = c.good.Run(c.inputs, walkState{}, Options{})
		return c
	}
	cases := []subject{scaled(2, 64, 8), scaled(3, 40, 5)}
	p := pool.New(8)
	defer p.Close()

	// check runs case c in mode (aux, reservations, aborting aux,
	// sequential) and reports how it differs from its sequential answer.
	check := func(c subject, mode int, seed uint64) error {
		// The window covers every earlier input, so the healthy aux is exact.
		o := Options{GroupSize: c.group, Window: len(c.inputs), RedoMax: 1, Rollback: 4, Pool: p, Seed: seed}
		d := c.good
		switch mode {
		case 0:
			o.UseAux = true
		case 1:
			o.UseAux, o.Protocol = true, ProtocolReservations
		case 2:
			o.UseAux, d = true, c.abort
		}
		outs, final, _ := d.Run(c.inputs, walkState{}, o)
		if !slices.Equal(outs, c.want) || final != c.final {
			return fmt.Errorf("mode %d, %d inputs: outputs %v final %v, want %v and %v", mode, len(c.inputs), outs, final, c.want, c.final)
		}
		return nil
	}

	for i := range 16 {
		if err := check(cases[i%2], i/2%4, uint64(i)); err != nil {
			t.Fatalf("alternating run %d: %v", i, err)
		}
	}

	const goroutines = 8
	runs := 12
	if testing.Short() {
		runs = 4
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range runs {
				if err := check(cases[(g+i)%2], (g+i/2)%4, uint64(g)<<32|uint64(i)); err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// captive is an object only a compute closure references; it is not tiny
// (the tiny allocator would batch it with other objects).
type captive struct {
	k   float64
	pad [4]int
}

// TestRecycledScratchPinsNoDependence: a parked scratch is shared by every
// Dependence of its type, so it must not keep the Dependence of its last run
// — its closures and whatever they capture — alive. The store keeps the
// scratch through any number of collections; the test requires the object
// the dropped Dependence's compute captured to be collected anyway, then
// takes the scratch back to check the run parked it.
func TestRecycledScratchPinsNoDependence(t *testing.T) {
	inputs := seqInputs(32)
	for _, c := range []struct {
		name   string
		proto  Protocol
		parked func() any
	}{
		{"aux", ProtocolAux, func() any { return recycled[runScratch[int, walkState, int]]().Get() }},
		{"reservations", ProtocolReservations, func() any { return recycled[resvRun[int, walkState, int]]().Get() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			drainScratch()
			wp := func() weak.Pointer[captive] {
				held := &captive{k: 1}
				d := New(func(_ *rng.Source, in int, s walkState) (int, walkState) {
					s.V += held.k * float64(in)
					return in, s
				}, sumAux, walkOps())
				opts := Options{UseAux: true, Protocol: c.proto, GroupSize: 8, Window: len(inputs), Workers: 1}
				if _, final, _ := d.Run(inputs, walkState{}, opts); final.V != 528 {
					t.Fatalf("final state %v, want 528", final.V)
				}
				return weak.Make(held)
			}()
			runtime.GC()
			runtime.GC()
			if wp.Value() != nil {
				t.Fatal("a parked scratch keeps its last Dependence's compute closure alive")
			}
			if c.parked() == nil {
				t.Fatal("the run parked no scratch")
			}
		})
	}
}

// TestStoreRetainsSlotsAfterConcurrentRuns bounds what the store keeps:
// eight more runs of one type than its list has slots (16 where GOMAXPROCS
// is at most 8), all inside their computes at once, hold a scratch each;
// through two collections after they return, the list retains exactly its
// Slots() of them (max(8, GOMAXPROCS)) — the rest overflowed into a
// sync.Pool, which the collector empties.
func TestStoreRetainsSlotsAfterConcurrentRuns(t *testing.T) {
	inputs := seqInputs(32)
	for _, c := range []struct {
		name   string
		proto  Protocol
		list   interface{ Slots() int }
		parked func() bool
	}{
		{"aux", ProtocolAux, recycled[runScratch[int, walkState, int]](),
			func() bool { return recycled[runScratch[int, walkState, int]]().Get() != nil }},
		{"reservations", ProtocolReservations, recycled[resvRun[int, walkState, int]](),
			func() bool { return recycled[resvRun[int, walkState, int]]().Get() != nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			drainScratch()
			runs := c.list.Slots() + 8
			var inside, wg sync.WaitGroup
			inside.Add(runs)
			for range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var once sync.Once
					d := New(func(_ *rng.Source, in int, s walkState) (int, walkState) {
						once.Do(func() { inside.Done(); inside.Wait() })
						s.V += float64(in)
						return in, s
					}, sumAux, walkOps())
					opts := Options{UseAux: true, Protocol: c.proto, GroupSize: 8, Window: len(inputs), Workers: 1}
					if _, final, _ := d.Run(inputs, walkState{}, opts); final.V != 528 {
						t.Errorf("final state %v, want 528", final.V)
					}
				}()
			}
			wg.Wait()
			runtime.GC()
			runtime.GC()
			kept := 0
			for c.parked() {
				kept++
			}
			if want := c.list.Slots(); kept != want {
				t.Fatalf("after %d concurrent runs and two collections the store keeps %d scratches, want its %d slots", runs, kept, want)
			}
		})
	}
}

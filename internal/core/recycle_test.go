package core

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/pool"
	"repro/internal/racemode"
)

// Recycling regression tests: the warm engine path must stay
// allocation-light (the run-scoped buffers come from the per-Dependence
// sync.Pool scratch, not the heap), and recycled state must never leak
// between concurrent runs sharing one Dependence.

// allocsPerRun measures the allocations of one call of body, the measured
// loop body of a gated benchmark in bench_test.go.
func allocsPerRun(t *testing.T, body func()) float64 {
	t.Helper()
	if racemode.Enabled {
		t.Skip("race-mode sync.Pool drops puts at random; allocs/run is not meaningful")
	}
	return testing.AllocsPerRun(50, body)
}

// TestWarmRunAllocations gates the bodies of BenchmarkEngineWarmRun and
// BenchmarkEngineColdRun with absolute allocs/run ceilings on what each
// path is accountable for: the warm aux path allocates what it must return
// (it measures 5), the cold one its scratch once per run whatever the
// group count (24 at these 4 groups), and warm stays below cold. The
// reservations protocol clones and returns caller-owned state every round,
// so its floor is higher: pinned to one lane every wave has one
// chunk, groups 0 and 2 of the four run rounds and 1 and 3 are conventional
// streaks (one clone and one source each), and the warm run measures 59.
func TestWarmRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	p := pool.New(4)
	defer p.Close()

	t.Run("aux", func(t *testing.T) {
		cold := allocsPerRun(t, auxRun(p, 32, false))
		warm := allocsPerRun(t, auxRun(p, 32, true))
		t.Logf("aux: warm %.1f allocs/run, cold %.1f", warm, cold)
		if warm > 8 || cold > 28 || warm >= cold {
			t.Fatalf("aux run allocates %.1f/run warm and %.1f cold; ceilings are 8 and 28, and warm below cold", warm, cold)
		}
	})

	t.Run("reservations", func(t *testing.T) {
		cold := allocsPerRun(t, reservationsRun(p, false))
		warm := allocsPerRun(t, reservationsRun(p, true))
		t.Logf("reservations: warm %.1f allocs/run, cold %.1f (%.0f%%)", warm, cold, 100*warm/cold)
		if warm > 64 || warm >= cold {
			t.Fatalf("warm reservations run allocates %.1f/run; ceilings are 64 and below the %.1f cold seed path", warm, cold)
		}
	})
}

// TestColdRunAllocationsDoNotScaleWithGroups is the cold path's other gate:
// a fresh Dependence builds its group records from one slab and its output
// buffers from one backing array, so a healthy run of 256 groups allocates
// what one of 32 does (give or take a size-class step), where one record
// and log G buffer growths per group used to.
func TestColdRunAllocationsDoNotScaleWithGroups(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	cold := func(groups int) float64 {
		inputs := benchInputs(16 * groups)
		// The window covers every earlier input, so sumAux is exact and every
		// boundary matches.
		opts := Options{UseAux: true, GroupSize: 16, Window: len(inputs), RedoMax: 1, Rollback: 4, Pool: p}
		return allocsPerRun(t, func() {
			opts.Seed++
			_, _, st := New(cheapCompute, sumAux, fingerprintWalkOps()).Run(inputs, walkState{}, opts)
			if st.Matches != groups-1 {
				t.Fatalf("%d groups: %d matches", groups, st.Matches)
			}
		})
	}
	few, many := cold(32), cold(256)
	t.Logf("cold aux run: %.1f allocs at 32 groups, %.1f at 256", few, many)
	if many-few > 4 {
		t.Fatalf("cold run allocates %.1f at 32 groups and %.1f at 256: per-group allocations are back", few, many)
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
// O. A cold run allocates one slab of them, one record per group, so every
// word added is bytes per group on every run that builds a fresh
// Dependence — measurable on the benchmark's alloc_bytes_per_input.
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

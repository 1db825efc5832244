package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pool"
	"repro/internal/rng"
)

// walkState is a toy state-dependence target used throughout these tests: a
// scalar random walk. Each invocation adds its input plus bounded noise to
// the state and emits a value derived from the input, so output correctness
// can be checked independently of the state chain.
type walkState struct{ V float64 }

func walkOps() StateOps[walkState] {
	return StateOps[walkState]{
		Clone: func(s walkState) walkState { return s },
		MatchAny: func(spec walkState, originals []walkState) bool {
			for _, o := range originals {
				if math.Abs(spec.V-o.V) <= 1e-9 {
					return true
				}
			}
			return false
		},
	}
}

// deterministicCompute has no nondeterminism: state is the exact prefix sum.
func deterministicCompute(_ *rng.Source, in int, s walkState) (int, walkState) {
	s.V += float64(in)
	return in * 2, s
}

// exactAux reproduces the true state: prefix sums are input-determined, so
// the speculative state always matches.
func exactAuxFor(inputs []int) Aux[int, walkState] {
	prefix := make([]float64, len(inputs)+1)
	for i, v := range inputs {
		prefix[i+1] = prefix[i] + float64(v)
	}
	// The aux sees the initial state and the recent window; for the test
	// we cheat via closure over the full input (the engine cannot tell).
	used := 0
	_ = used
	return func(_ *rng.Source, init walkState, recent []int) walkState {
		// Identify the group start by matching the recent window's end.
		// Recent windows are inputs[lo:start]; their sum plus everything
		// before them equals prefix[start]. We reconstruct start by
		// scanning — fine for tests.
		for start := 0; start <= len(inputs); start++ {
			lo := start - len(recent)
			if lo < 0 {
				continue
			}
			match := true
			for i, v := range inputs[lo:start] {
				if recent[i] != v {
					match = false
					break
				}
			}
			if match {
				return walkState{V: init.V + prefix[start]}
			}
		}
		return walkState{V: math.NaN()}
	}
}

func badAux(_ *rng.Source, init walkState, _ []int) walkState {
	return walkState{V: init.V - 1e9}
}

func seqInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i + 1
	}
	return in
}

func wantOutputs(inputs []int) []int {
	out := make([]int, len(inputs))
	for i, v := range inputs {
		out[i] = v * 2
	}
	return out
}

func checkOutputs(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil compute accepted")
		}
	}()
	New[int, walkState, int](nil, nil, walkOps())
}

func TestNewRequiresClone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clone accepted")
		}
	}()
	New(deterministicCompute, nil, StateOps[walkState]{})
}

func TestEmptyInputs(t *testing.T) {
	d := New(deterministicCompute, nil, walkOps())
	outs, final, st := d.Run(nil, walkState{V: 7}, Options{})
	if len(outs) != 0 {
		t.Fatalf("outputs: %v", outs)
	}
	if final.V != 7 {
		t.Fatalf("final: %v", final)
	}
	if st.Invocations != 0 {
		t.Fatalf("invocations: %d", st.Invocations)
	}
}

func TestSequentialWhenAuxDisabled(t *testing.T) {
	inputs := seqInputs(10)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	outs, final, st := d.Run(inputs, walkState{}, Options{UseAux: false, GroupSize: 2, Workers: 4, Seed: 1})
	checkOutputs(t, outs, wantOutputs(inputs))
	if final.V != 55 {
		t.Fatalf("final state %v", final.V)
	}
	if st.Groups != 1 || st.AuxCalls != 0 || st.SpeculativeCommits != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestSequentialWhenNoAux(t *testing.T) {
	inputs := seqInputs(6)
	d := New(deterministicCompute, nil, walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{UseAux: true, GroupSize: 2, Seed: 1})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Groups != 1 {
		t.Fatalf("groups: %d", st.Groups)
	}
}

func TestSequentialWhenGroupCoversAll(t *testing.T) {
	inputs := seqInputs(4)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	_, _, st := d.Run(inputs, walkState{}, Options{UseAux: true, GroupSize: 4, Seed: 1})
	if st.Groups != 1 {
		t.Fatalf("groups: %d", st.Groups)
	}
}

func TestSpeculationAllMatches(t *testing.T) {
	inputs := seqInputs(16)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	outs, final, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 4, Window: 16, Workers: 4, Seed: 42,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if final.V != 136 {
		t.Fatalf("final: %v", final.V)
	}
	if st.Groups != 4 {
		t.Fatalf("groups: %d", st.Groups)
	}
	if st.Matches != 3 {
		t.Fatalf("matches: %d", st.Matches)
	}
	if st.Aborts != 0 || st.Redos != 0 {
		t.Fatalf("aborts/redos: %+v", st)
	}
	if st.SpeculativeCommits != 12 {
		t.Fatalf("speculative commits: %d", st.SpeculativeCommits)
	}
	if st.AuxCalls != 3 {
		t.Fatalf("aux calls: %d", st.AuxCalls)
	}
}

func TestSpeculationAbortsAndFallsBack(t *testing.T) {
	inputs := seqInputs(12)
	d := New(deterministicCompute, badAux, walkOps())
	outs, final, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 2, Workers: 4, Seed: 7, RedoMax: 2, Rollback: 2,
	})
	// Output quality must be preserved despite the hopeless aux code.
	checkOutputs(t, outs, wantOutputs(inputs))
	if final.V != 78 {
		t.Fatalf("final: %v", final.V)
	}
	if st.Aborts != 1 {
		t.Fatalf("aborts: %d", st.Aborts)
	}
	if st.Matches != 0 {
		t.Fatalf("matches: %d", st.Matches)
	}
	if st.Redos != 2 {
		t.Fatalf("redos: %d (budget was 2)", st.Redos)
	}
	// First group (3 inputs) committed; the rest fell back.
	if st.FallbackInputs != 9 {
		t.Fatalf("fallback inputs: %d", st.FallbackInputs)
	}
	if st.SquashedInputs != 9 {
		t.Fatalf("squashed inputs: %d", st.SquashedInputs)
	}
	if st.SpeculativeCommits != 0 {
		t.Fatalf("speculative commits: %d", st.SpeculativeCommits)
	}
}

func TestWindowLimitsAuxInputs(t *testing.T) {
	inputs := seqInputs(12)
	exact := exactAuxFor(inputs) // no abort: every group runs its aux
	var maxRecent atomic.Int64
	aux := func(_ *rng.Source, init walkState, recent []int) walkState {
		for {
			seen := maxRecent.Load()
			if int64(len(recent)) <= seen || maxRecent.CompareAndSwap(seen, int64(len(recent))) {
				break
			}
		}
		return exact(nil, init, recent)
	}
	d := New(deterministicCompute, aux, walkOps())
	_, _, st := d.Run(inputs, walkState{}, Options{UseAux: true, GroupSize: 3, Window: 2, Seed: 1})
	if maxRecent.Load() > 2 {
		t.Fatalf("aux saw %d recent inputs, window was 2", maxRecent.Load())
	}
	if st.AuxInputs != 2*3 {
		t.Fatalf("aux inputs: %d", st.AuxInputs)
	}
}

// TestNoGroupWaitsForAnotherGroupsAux pins the invariant that the auxiliary
// code is the head of its own group's lane task: an aux that blocks until
// group 0's first compute has run must not stop group 0 from starting. A
// coordinator-side aux prefix deadlocks here (nothing launches until every
// aux has returned), hence the timeout.
func TestNoGroupWaitsForAnotherGroupsAux(t *testing.T) {
	inputs := seqInputs(12)
	exact := exactAuxFor(inputs)
	computed := make(chan struct{})
	var once sync.Once
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		once.Do(func() { close(computed) })
		return deterministicCompute(r, in, s)
	}
	aux := func(r *rng.Source, init walkState, recent []int) walkState {
		<-computed
		return exact(r, init, recent)
	}
	type result struct {
		outs []int
		st   Stats
	}
	done := make(chan result, 1)
	go func() {
		// One worker per group, so no blocked aux can occupy the worker
		// group 0 needs.
		outs, _, st := New(compute, aux, walkOps()).Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 9,
		})
		done <- result{outs, st}
	}()
	select {
	case r := <-done:
		checkOutputs(t, r.outs, wantOutputs(inputs))
		if r.st.Aborts != 0 || r.st.Matches != 3 || r.st.AuxCalls != 3 {
			t.Fatalf("run did not speculate cleanly: %+v", r.st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: the groups' aux calls are waiting for a group 0 that was never launched")
	}
}

// TestGroupsClaimedInIndexOrder pins the claim rule: lanes start groups in
// strict index order whatever the pool's sharding did. Every group's first
// compute except group 1's blocks until group 1's first compute has begun,
// so with two workers group 1 must be the second group to start. Chunked
// placement deadlocks here (group 1 queues behind group 0 on one worker
// while the other blocks in group 4), hence the timeout.
func TestGroupsClaimedInIndexOrder(t *testing.T) {
	inputs := seqInputs(32)
	begun := make(chan struct{})
	var once sync.Once
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 5 { // group 1's first input
			once.Do(func() { close(begun) })
		} else if in%4 == 1 {
			<-begun
		}
		return deterministicCompute(r, in, s)
	}
	type result struct {
		outs []int
		st   Stats
	}
	done := make(chan result, 1)
	go func() {
		outs, _, st := New(compute, exactAuxFor(inputs), walkOps()).Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 4, Window: 32, Workers: 2, Seed: 9,
		})
		done <- result{outs, st}
	}()
	select {
	case r := <-done:
		checkOutputs(t, r.outs, wantOutputs(inputs))
		if r.st.Aborts != 0 || r.st.Matches != 7 {
			t.Fatalf("run did not speculate cleanly: %+v", r.st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: group 1 did not start second, so it was placed, not claimed")
	}
}

// nondetCompute adds Gaussian noise to the state transition. The noise makes
// the final state of a group vary across re-executions, which is exactly the
// freedom STATS exploits.
func nondetCompute(r *rng.Source, in int, s walkState) (int, walkState) {
	s.V += float64(in) + r.Norm()*0.5
	return in * 2, s
}

// tolerantOps accepts a speculative state within tol of any original.
func tolerantOps(tol float64) StateOps[walkState] {
	return StateOps[walkState]{
		Clone: func(s walkState) walkState { return s },
		MatchAny: func(spec walkState, originals []walkState) bool {
			for _, o := range originals {
				if math.Abs(spec.V-o.V) <= tol {
					return true
				}
			}
			return false
		},
	}
}

// noiselessAux predicts the state ignoring noise, so whether it matches
// depends on how the accumulated noise happens to land — across seeds it
// will sometimes need redos and sometimes abort.
func noiselessAuxFor(inputs []int) Aux[int, walkState] {
	exact := exactAuxFor(inputs)
	return func(r *rng.Source, init walkState, recent []int) walkState {
		return exact(r, init, recent)
	}
}

func TestRedosHappenAcrossSeeds(t *testing.T) {
	inputs := seqInputs(32)
	var redos, matches, aborts int
	for seed := uint64(0); seed < 40; seed++ {
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(1.2))
		outs, _, st := d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 8, Window: 32, Workers: 4,
			RedoMax: 3, Rollback: 4, Seed: seed,
		})
		checkOutputs(t, outs, wantOutputs(inputs))
		redos += st.Redos
		matches += st.Matches
		aborts += st.Aborts
	}
	if matches == 0 {
		t.Fatal("no speculative state ever matched; tolerance model broken")
	}
	if redos == 0 {
		t.Fatal("no redo ever happened; nondeterminism not exercised")
	}
}

func TestOutputsPreservedUnderAnyOutcome(t *testing.T) {
	// Whatever the speculation outcome, outputs must equal the
	// input-determined values, in order.
	inputs := seqInputs(50)
	for seed := uint64(0); seed < 20; seed++ {
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(0.8))
		outs, _, _ := d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 7, Window: 10, Workers: 8,
			RedoMax: 2, Rollback: 3, Seed: seed,
		})
		checkOutputs(t, outs, wantOutputs(inputs))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	inputs := seqInputs(24)
	run := func() ([]int, walkState, Stats) {
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(1.0))
		return d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 6, Window: 6, Workers: 4,
			RedoMax: 2, Rollback: 2, Seed: 99,
		})
	}
	o1, f1, s1 := run()
	o2, f2, s2 := run()
	checkOutputs(t, o1, o2)
	if f1.V != f2.V {
		t.Fatalf("final states differ: %v vs %v", f1.V, f2.V)
	}
	if s1.Matches != s2.Matches || s1.Redos != s2.Redos || s1.Aborts != s2.Aborts {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
}

func TestMatchAnySeesGrowingOriginalSet(t *testing.T) {
	inputs := seqInputs(8)
	var sizes []int
	ops := StateOps[walkState]{
		Clone: func(s walkState) walkState { return s },
		MatchAny: func(spec walkState, originals []walkState) bool {
			sizes = append(sizes, len(originals))
			return len(originals) == 3 // accept only on the second redo
		},
	}
	d := New(nondetCompute, noiselessAuxFor(inputs), ops)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 4, Window: 8, RedoMax: 5, Rollback: 2, Seed: 5,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Redos != 2 {
		t.Fatalf("redos: %d", st.Redos)
	}
	if st.Matches != 1 {
		t.Fatalf("matches: %d", st.Matches)
	}
	// The acceptance method must have seen sets of size 1, then 2, then 3.
	if len(sizes) < 3 || sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 3 {
		t.Fatalf("original set sizes: %v", sizes)
	}
}

func TestNilMatchAnyAcceptsByConstruction(t *testing.T) {
	// swaptions-style dependence: no comparison function needed.
	inputs := seqInputs(12)
	ops := StateOps[walkState]{Clone: func(s walkState) walkState { return s }}
	d := New(nondetCompute, noiselessAuxFor(inputs), ops)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 3,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Aborts != 0 || st.Matches != 3 {
		t.Fatalf("by-construction acceptance: %+v", st)
	}
}

func TestSharedPool(t *testing.T) {
	inputs := seqInputs(16)
	p := pool.New(4)
	defer p.Close()
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 4, Window: 16, Pool: p, Seed: 1,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Matches != 3 {
		t.Fatalf("matches: %d", st.Matches)
	}
	if p.Metrics().Executed == 0 {
		t.Fatal("shared pool never used")
	}
}

func TestRedoOnlyRecomputesSuffix(t *testing.T) {
	inputs := seqInputs(8)
	var invocationLog []int
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		invocationLog = append(invocationLog, in) // guarded by Workers:1
		return nondetCompute(r, in, s)
	}
	ops := StateOps[walkState]{
		Clone: func(s walkState) walkState { return s },
		MatchAny: func(spec walkState, originals []walkState) bool {
			return len(originals) == 2
		},
	}
	d := New(compute, noiselessAuxFor(inputs), ops)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 4, Window: 8, RedoMax: 3, Rollback: 2, Workers: 1, Seed: 11,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Redos != 1 {
		t.Fatalf("redos: %d", st.Redos)
	}
	// Total invocations: 8 originals + 2 redone (rollback 2).
	if st.Invocations != 10 {
		t.Fatalf("invocations: %d, log %v", st.Invocations, invocationLog)
	}
	// The redone inputs are the last two of group 0: inputs 3 and 4.
	tail := invocationLog[len(invocationLog)-2:]
	if tail[0] != 3 || tail[1] != 4 {
		t.Fatalf("redo recomputed %v, want [3 4]", tail)
	}
}

func TestStatsInvariants(t *testing.T) {
	f := func(seed uint64, groupRaw, windowRaw, redoRaw uint8) bool {
		inputs := seqInputs(30)
		g := int(groupRaw)%10 + 1
		w := int(windowRaw) % 12
		r := int(redoRaw) % 3
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(1.0))
		outs, _, st := d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: g, Window: w, Workers: 4,
			RedoMax: r, Rollback: 2, Seed: seed,
		})
		if len(outs) != len(inputs) {
			return false
		}
		for i, o := range outs {
			if o != inputs[i]*2 {
				return false
			}
		}
		// Useful work never exceeds total work; committed inputs add up.
		if st.UsefulInvocations > st.Invocations {
			return false
		}
		if st.Aborts > 1 { // a single run aborts at most once (speculation then stops)
			return false
		}
		return st.Inputs == len(inputs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialStateNotMutated(t *testing.T) {
	inputs := seqInputs(8)
	init := walkState{V: 5}
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	// exactAux adds init.V, so matches still hold.
	_, _, _ = d.Run(inputs, init, Options{UseAux: true, GroupSize: 2, Window: 8, Seed: 1})
	if init.V != 5 {
		t.Fatalf("initial state mutated: %v", init.V)
	}
}

func TestGroupSizeClamped(t *testing.T) {
	inputs := seqInputs(5)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{UseAux: true, GroupSize: -3, Window: 5, Seed: 1})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Groups != 5 {
		t.Fatalf("groups: %d", st.Groups)
	}
}

func TestUnevenLastGroup(t *testing.T) {
	inputs := seqInputs(10) // groups of 4: [0..4) [4..8) [8..10)
	d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	outs, final, st := d.Run(inputs, walkState{}, Options{UseAux: true, GroupSize: 4, Window: 10, Workers: 4, Seed: 1})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Groups != 3 {
		t.Fatalf("groups: %d", st.Groups)
	}
	if final.V != 55 {
		t.Fatalf("final: %v", final.V)
	}
}

func TestComputePanicPropagates(t *testing.T) {
	// A deterministic panic (one that fires every time its input is
	// computed) is first contained on the speculative lane, but the
	// sequential fallback re-executes the same input and panics again —
	// with no safe fallback left it must surface on the calling goroutine
	// (recoverable), not kill the process.
	inputs := seqInputs(12)
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 7 {
			panic("user bug")
		}
		return deterministicCompute(r, in, s)
	}
	d := New(compute, exactAuxFor(inputs), walkOps())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if r != "user bug" {
			t.Fatalf("panic value: %v", r)
		}
	}()
	d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 1,
	})
	t.Fatal("unreachable")
}

func TestComputePanicSequentialPathStillPanics(t *testing.T) {
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		panic("seq bug")
	}
	d := New(compute, nil, walkOps())
	defer func() {
		if recover() != "seq bug" {
			t.Fatal("sequential panic lost")
		}
	}()
	d.Run(seqInputs(3), walkState{}, Options{Seed: 1})
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/rng"
)

// Tests of the run's shape: the calling goroutine is lane 0, every further
// lane is one pool task that claims groups from the ticket, and a one-lane
// run touches no goroutine but its caller's. They fail when the shape is
// wrong even though every output is right.

// TestOneLaneRunStaysOnTheCaller: at Workers: 1 every compute, aux and match
// of an aux run executes on the goroutine that called Run, nothing is
// submitted to a given pool, and without one no goroutine is started at all.
func TestOneLaneRunStaysOnTheCaller(t *testing.T) {
	inputs := seqInputs(64)
	shared := pool.New(2)
	defer shared.Close()
	for _, p := range []*pool.Pool{nil, shared} {
		caller, goroutines := goid(), runtime.NumGoroutine()
		onCaller := func(what string) {
			if id := goid(); id != caller {
				t.Errorf("pool %v: %s ran on goroutine %s, the caller is %s", p != nil, what, id, caller)
			}
		}
		aux, ops := exactAuxFor(inputs), walkOps()
		match := ops.MatchAny
		ops.MatchAny = func(spec walkState, originals []walkState) bool {
			onCaller("match")
			return match(spec, originals)
		}
		d := New(func(r *rng.Source, in int, s walkState) (int, walkState) {
			onCaller("compute")
			// More, not different: an earlier test's pool worker may still be
			// on its way out.
			if n := runtime.NumGoroutine(); p == nil && n > goroutines {
				t.Errorf("%d goroutines inside compute, %d before the run: a one-lane run started one", n, goroutines)
			}
			return deterministicCompute(r, in, s)
		}, func(r *rng.Source, init walkState, recent []int) walkState {
			onCaller("aux")
			return aux(r, init, recent)
		}, ops)
		var before pool.Metrics
		if p != nil {
			before = p.Metrics()
		}
		outs, _, st := d.Run(inputs, walkState{}, Options{
			UseAux: true, GroupSize: 4, Window: len(inputs), Workers: 1, Pool: p, Seed: 21,
		})
		checkOutputs(t, outs, wantOutputs(inputs))
		if st.Groups != 16 || st.Matches != 15 || st.AuxCalls != 15 || st.Aborts != 0 {
			t.Fatalf("pool %v: not a healthy speculative run: %+v", p != nil, st)
		}
		if st.Steals+st.LocalHits != 0 {
			t.Fatalf("pool %v: %d pool dispatches on a one-lane run", p != nil, st.Steals+st.LocalHits)
		}
		if p != nil && p.Metrics() != before {
			t.Fatalf("the shared pool's metrics moved: %+v, were %+v", p.Metrics(), before)
		}
	}
}

// TestLanesTimesGroups sweeps the lane count against the group count, fewer
// groups than lanes included, on a private and on a shared pool, with an aux
// that always matches and one that goes bad at group 3. Whatever the shape,
// every input is committed exactly once and every accepted state was executed
// from; and the pool sees one task per lane beyond the caller's that had a
// group to claim and a worker to run on, none per group.
func TestLanesTimesGroups(t *testing.T) {
	const g, width = 4, 3
	shared := pool.New(width)
	defer shared.Close()
	for workers := 1; workers <= 5; workers++ {
		for groups := 1; groups <= 9; groups++ {
			n := groups*g - groups%2 // a ragged last group every other time
			inputs := seqInputs(n)
			exact := exactAuxFor(inputs)
			for _, p := range []*pool.Pool{nil, shared} {
				for _, badFrom := range []int{groups, 3} {
					name := fmt.Sprintf("workers=%d groups=%d shared=%v badFrom=%d", workers, groups, p != nil, badFrom)
					aux := func(r *rng.Source, init walkState, recent []int) walkState {
						if len(recent) >= badFrom*g { // the window is every earlier input
							return badAux(r, init, recent)
						}
						return exact(r, init, recent)
					}
					var computed atomic.Int64
					d := New(func(r *rng.Source, in int, s walkState) (int, walkState) {
						computed.Add(1)
						return deterministicCompute(r, in, s)
					}, aux, walkOps())
					outs, final, st := d.Run(inputs, walkState{}, Options{
						UseAux: true, GroupSize: g, Window: n, Workers: workers, Pool: p, Seed: 31,
					})
					checkOutputs(t, outs, wantOutputs(inputs))
					if want := float64(n * (n + 1) / 2); final.V != want {
						t.Fatalf("%s: final state %v, want %v", name, final.V, want)
					}
					// Committed exactly once; executed at least that.
					if st.Groups != groups || st.UsefulInvocations != int64(n) || st.Invocations != computed.Load() || st.Invocations < int64(n) {
						t.Fatalf("%s: invocation accounts off (%d computes): %+v", name, computed.Load(), st)
					}
					first := n
					if groups > 1 {
						first = g
					}
					if first+st.SpeculativeCommits+st.FallbackInputs != n || st.SquashedInputs != st.FallbackInputs {
						t.Fatalf("%s: commit accounts off: %+v", name, st)
					}
					// Accepted ⇒ executed: a boundary matched only against a
					// state its aux produced, and every boundary below the bad
					// one matched.
					aborts, matches, specCommits := 0, groups-1, n-first
					if badFrom < groups {
						aborts, matches, specCommits = 1, badFrom-1, (badFrom-1)*g
					}
					if st.Aborts != aborts || st.Matches != matches || st.SpeculativeCommits != specCommits ||
						st.AuxCalls < st.Matches || st.AuxCalls > groups-1 {
						t.Fatalf("%s: boundary accounts off, want %d matches, %d aborts and %d speculative commits: %+v",
							name, matches, aborts, specCommits, st)
					}
					lanes := min(workers, groups)
					if p != nil {
						lanes = min(lanes, width+1)
					}
					if tasks := st.Steals + st.LocalHits; tasks != int64(lanes-1) {
						t.Fatalf("%s: %d pool tasks, want one per lane beyond the caller's: %d", name, tasks, lanes-1)
					}
				}
			}
		}
	}
}

// TestRunProgressesOnASaturatedPool: a run on a shared pool whose only worker
// is held by someone else's task still makes progress — the caller is a lane,
// so every group runs on it. The run's one lane task sits in the worker's
// queue the whole time, and the run does not return before it has been
// popped: a queued lane task holds the run's scratch, which must not be
// recycled under it. So Run returns once the foreign task is released, not
// before, and the next run on the same Dependence finds a clean scratch.
func TestRunProgressesOnASaturatedPool(t *testing.T) {
	p := pool.New(1)
	defer p.Close()
	held, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release() // before the pool's Close, whatever fails
	if err := p.Submit(func() { close(held); <-hold }); err != nil {
		t.Fatal(err)
	}
	<-held

	inputs := seqInputs(32)
	var caller string
	var computed atomic.Int32
	var saturated atomic.Bool
	saturated.Store(true)
	allRan := make(chan struct{})
	d := New(func(r *rng.Source, in int, s walkState) (int, walkState) {
		if id := goid(); saturated.Load() && id != caller {
			t.Errorf("compute(%d) ran on goroutine %s with the pool's worker held, the caller is %s", in, id, caller)
		}
		if computed.Add(1) == int32(len(inputs)) {
			close(allRan)
		}
		return deterministicCompute(r, in, s)
	}, exactAuxFor(inputs), walkOps())
	opts := Options{UseAux: true, GroupSize: 4, Window: len(inputs), Workers: 2, Pool: p, Seed: 41}

	var outs []int
	var st Stats
	done := make(chan struct{})
	go func() {
		defer close(done)
		caller = goid()
		outs, _, st = d.Run(inputs, walkState{}, opts)
	}()
	select {
	case <-allRan:
	case <-time.After(30 * time.Second):
		t.Fatal("no progress: the run waits for a pool worker it does not need")
	}
	select {
	case <-done:
		t.Fatal("Run returned with its lane task still queued behind the foreign task")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-done
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Matches != st.Groups-1 || st.Steals+st.LocalHits < 1 {
		t.Fatalf("run on the saturated pool: %+v", st)
	}

	// The worker is free now: the same Dependence and scratch on two real lanes.
	saturated.Store(false)
	outs, _, st = d.Run(inputs, walkState{}, opts)
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Matches != st.Groups-1 {
		t.Fatalf("run after the saturated one: %+v", st)
	}
}

// TestReservationLanesFromAGivenPool: a reservations run with Workers unset
// takes its wave width from the pool it was given, as an aux run takes its
// lanes. Coarse slotted computes on four workers fan out every round, so no
// group declines and none is conventional.
func TestReservationLanesFromAGivenPool(t *testing.T) {
	const n, k = 32, 4
	p := pool.New(4)
	defer p.Close()
	ops, reserve := SlotOps[int, float64](func(in int) []int { return []int{in % k} }, nil, nil)
	compute := func(_ *rng.Source, in int, s []float64) (float64, []float64) {
		time.Sleep(time.Millisecond) // slept, so lanes overlap on any GOMAXPROCS
		s[in%k] += float64(in) + 0.5
		return s[in%k], s
	}
	d := New(compute, nil, ops).WithReserve(reserve)
	inputs := seqInputs(n)
	seqOuts, seqFinal, _ := d.Run(inputs, make([]float64, k), Options{Seed: 51})
	outs, final, st := d.Run(inputs, make([]float64, k), Options{
		UseAux: true, Protocol: ProtocolReservations, GroupSize: 8, Pool: p, Seed: 51,
	})
	if fmt.Sprint(outs, final) != fmt.Sprint(seqOuts, seqFinal) {
		t.Fatalf("reservations diverged from sequential:\n got %v %v\nwant %v %v", outs, final, seqOuts, seqFinal)
	}
	if st.Steals+st.LocalHits == 0 || st.ConventionalInputs != 0 || st.Aborts != 0 {
		t.Fatalf("%d pool tasks and %d conventional inputs on a four-worker pool, want every round fanned out: %+v",
			st.Steals+st.LocalHits, st.ConventionalInputs, st)
	}
}

// TestPanicFidelityOnTheCallersLane: user code that panics on the caller's
// lane — here the only lane — is contained like on a pool lane: the group is
// squashed, the outputs are the sequential run's, and value and stack reach
// Stats.Panics.
func TestPanicFidelityOnTheCallersLane(t *testing.T) {
	inputs := seqInputs(12)
	caller := goid()
	boom := func(what string) {
		if id := goid(); id != caller {
			t.Errorf("%s ran on goroutine %s, the caller is %s", what, id, caller)
		}
		panic(what + " boom")
	}
	var fired sync.Once
	ops := walkOps()
	ops.MatchAny = func(walkState, []walkState) bool { boom("match"); return false }
	for _, ps := range []panicSite{
		auxSite(New(func(r *rng.Source, in int, s walkState) (int, walkState) {
			if in == 8 {
				fired.Do(func() { boom("compute") })
			}
			return deterministicCompute(r, in, s)
		}, exactAuxFor(inputs), walkOps()), 61, "compute boom"),
		auxSite(New(deterministicCompute, func(*rng.Source, walkState, []int) walkState {
			boom("aux")
			return walkState{}
		}, walkOps()), 62, "aux boom"),
		auxSite(New(deterministicCompute, exactAuxFor(inputs), ops), 63, "match boom"),
	} {
		ps.opts.Workers = 1
		ps.check(t)
	}
}

// TestFanOutPays pins the reservations fan-out rule on fixed readings, where
// the end-to-end tests can only assert what holds for any measurement: until
// three fan-outs have been measured a wave goes out and its group counts as
// fanned by choice; after that the work a fan-out overlaps is compared with
// the median of the last three costs, and a wave the comparison declines
// still goes out — unmarked — when its ordinal is a power of two.
func TestFanOutPays(t *testing.T) {
	const w, chunks = 8, 2 // a fan-out overlaps the 4 winners beyond its largest chunk
	for _, c := range []struct {
		name             string
		fanned, waves    int // before the call
		costs            [3]int64
		nsPerCompute     int64
		pays, wantChoice bool
	}{
		{"nothing measured", 0, 0, [3]int64{}, 1, true, true},
		{"two measured", 2, 2, [3]int64{9e6, 9e6, 0}, 1, true, true},
		{"cheap computes, dear fan-outs", 3, 4, [3]int64{20_000, 2_000, 200_000}, 100, false, false},
		{"cheap computes, power-of-two ordinal", 3, 7, [3]int64{20_000, 2_000, 200_000}, 100, true, false},
		{"median, not minimum", 3, 4, [3]int64{20_000, 2_000, 200_000}, 1_000, false, false},
		{"median, not mean", 3, 4, [3]int64{20_000, 2_000, 200_000}, 6_000, true, true},
		{"dear computes", 3, 4, [3]int64{20_000, 2_000, 200_000}, 50_000, true, true},
	} {
		r := &resvRun[int, []float64, float64]{
			fanned: c.fanned, waves: c.waves, fanCosts: c.costs,
			invocations: 10, laneNS: 10 * c.nsPerCompute,
		}
		if got := r.fanOutPays(w, chunks); got != c.pays || r.byChoice != c.wantChoice {
			t.Errorf("%s: fanOutPays = %v (byChoice %v), want %v (%v)", c.name, got, r.byChoice, c.pays, c.wantChoice)
		}
		if r.waves != c.waves+1 {
			t.Errorf("%s: the ruling was not counted: waves %d -> %d", c.name, c.waves, r.waves)
		}
	}
}

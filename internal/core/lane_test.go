package core

import (
	"fmt"
	"runtime"
	"strings"
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

// TestLanesRunOnWarmWorkers: a run given no pool leases the process pool, so
// the lane task of a second 2-lane run runs on a goroutine that existed before
// that run started, and the run leaves the goroutine count where the first
// one did. Each run's first compute on a lane waits until both lanes computed,
// so the lane task has run a group when the run returns.
func TestLanesRunOnWarmWorkers(t *testing.T) {
	inputs := seqInputs(32)
	var mu sync.Mutex
	var seen map[string]bool
	both := make(chan struct{})
	d := New(func(r *rng.Source, in int, s walkState) (int, walkState) {
		id := goid()
		mu.Lock()
		first, ready := !seen[id], both
		seen[id] = true
		if first && len(seen) == 2 {
			close(both)
		}
		mu.Unlock()
		if first {
			select {
			case <-ready:
			case <-time.After(30 * time.Second):
				t.Error("one lane computed alone: the other lane never ran a group")
			}
		}
		return deterministicCompute(r, in, s)
	}, exactAuxFor(inputs), walkOps())
	run := func() (lane string) {
		mu.Lock()
		seen, both = map[string]bool{}, make(chan struct{})
		mu.Unlock()
		caller := goid()
		outs, _, st := d.Run(inputs, walkState{}, Options{UseAux: true, GroupSize: 4, Window: len(inputs), Workers: 2, Seed: 71})
		checkOutputs(t, outs, wantOutputs(inputs))
		if st.LocalHits != 1 {
			t.Fatalf("%d pool tasks on a 2-lane run, want 1", st.LocalHits)
		}
		for id := range seen {
			if id != caller {
				lane = id
			}
		}
		return lane
	}
	run()
	after := steadyGoroutines()
	existing := liveGoroutines()
	lane := run()
	if !existing[lane] {
		t.Errorf("the second run's lane task ran on goroutine %s, started during the run", lane)
	}
	if n := runtime.NumGoroutine(); n != after {
		t.Errorf("%d goroutines after the second run, %d after the first", n, after)
	}
}

// steadyGoroutines returns the goroutine count once it has held for 10 ms
// (or after a second): an earlier test's goroutines may be on their way out.
func steadyGoroutines() int {
	n := runtime.NumGoroutine()
	for held, tries := 0, 0; held < 10 && tries < 1000; tries++ {
		time.Sleep(time.Millisecond)
		held++
		if m := runtime.NumGoroutine(); m != n {
			n, held = m, 0
		}
	}
	return n
}

// liveGoroutines returns the ids of every goroutine alive now.
func liveGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	ids := map[string]bool{}
	for _, line := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "goroutine" {
			ids[f[1]] = true
		}
	}
	return ids
}

// TestLanesTimesGroups sweeps the lane count against the group count, fewer
// groups than lanes included, on the process pool and on a given one, with an
// aux that always matches and one that goes bad at group 3. Whatever the shape,
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

// TestLaneTasksCountedPerRun: runs sharing one pool each count only the lane
// tasks they handed it and the queue depths those tasks met. Two goroutines
// run aux runs at three lanes on one two-worker pool, so each run hands the
// pool two tasks while the other's are queued or running beside them: its
// deepest queue is at least 1 (its own first task) and at most those four. A
// third runs one-lane runs on the same pool, which hand it nothing and meet
// no queue, however deep the pool's queue has been.
func TestLaneTasksCountedPerRun(t *testing.T) {
	inputs := seqInputs(32)
	shared := pool.New(2)
	defer shared.Close()
	var wg sync.WaitGroup
	for c, workers := range []int{3, 3, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := New(deterministicCompute, exactAuxFor(inputs), walkOps())
			want := int64(workers - 1)
			for i := 0; i < 50; i++ {
				_, _, st := d.Run(inputs, walkState{}, Options{
					UseAux: true, GroupSize: 4, Window: len(inputs), Workers: workers, Pool: shared, Seed: uint64(i),
				})
				if tasks := st.Steals + st.LocalHits; tasks != want {
					t.Errorf("caller %d run %d: %d pool tasks, want its own %d", c, i, tasks, want)
					return
				}
				if peak := st.QueueDepthPeak; peak < min(want, 1) || peak > 2*want {
					t.Errorf("caller %d run %d: queue depth peak %d, want its own tasks' in [%d, %d]", c, i, peak, min(want, 1), 2*want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak := shared.Metrics().QueueDepthPeak; peak < 1 {
		t.Fatalf("the shared pool's queue depth peak is %d, want at least 1", peak)
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

// TestRoundsPay pins the reservations group ruling on fixed grains, where
// the end-to-end tests can only assert what holds on the host's: a group
// ruled before any chunk was timed runs rounds; after that it does when the
// winners beyond the largest chunk of its widest possible wave — bounded by
// its width, the slot count and the lanes — cost more than fanOutPrice at the
// run's grain.
func TestRoundsPay(t *testing.T) {
	// 19 inputs in groups of 8: groups 0 and 1 are 8 wide, group 2 is 3.
	for _, c := range []struct {
		name         string
		grain        int64 // ns per compute
		lanes, slots int
		group        int
		pays         bool
	}{
		{"nothing timed", untimed, 2, 64, 0, true},
		{"nothing timed, one lane", untimed, 1, 64, 0, true},
		{"cheap grain", 2_000, 2, 64, 0, false},
		{"dear grain", 100_000, 2, 64, 0, true},
		{"dear grain, one lane", 100_000_000, 1, 64, 0, false},
		{"dear grain, whole-state slot", 100_000_000, 4, 1, 0, false},
		{"two slots bound the wave", fanOutPrice * 5 / 6, 2, 2, 0, false},
		{"four winners beyond the largest chunk", fanOutPrice * 5 / 6, 2, 64, 1, true},
		{"narrower last group", fanOutPrice * 5 / 6, 2, 64, 2, false},
		{"at the price", fanOutPrice / 4, 2, 64, 0, false},
	} {
		r := &resvRun[int, []float64, float64]{
			runFrame: runFrame{n: 19, g: 8, numGroups: 3, lanes: c.lanes},
			table:    make([]int64, c.slots),
			grain:    c.grain,
		}
		if got := r.roundsPay(c.group); got != c.pays {
			t.Errorf("%s: roundsPay(%d) = %v, want %v", c.name, c.group, got, c.pays)
		}
	}

	// The grain is the cheapest compute of any chunk: a preempted chunk
	// cannot raise it, and one that computed nothing leaves it alone.
	r := &resvRun[int, []float64, float64]{
		runFrame: runFrame{n: 16, g: 8, numGroups: 2, lanes: 2},
		table:    make([]int64, 64),
		grain:    untimed,
	}
	for _, w := range []laneWork{{2, 6_000, 2_500}, {2, 40_000_000, 19_000_000}, {0, 500, untimed}} {
		r.file(w)
	}
	if r.grain != 2_500 || r.invocations != 4 || r.laneNS != 40_006_500 {
		t.Fatalf("after a cheap, a preempted and an empty chunk: grain %d, invocations %d, laneNS %d; want 2500, 4, 40006500", r.grain, r.invocations, r.laneNS)
	}
	if r.roundsPay(1) {
		t.Fatalf("a group ruled at a %d ns grain ran rounds for 4 overlapped winners against a %d ns price", r.grain, fanOutPrice)
	}
}

// Property test of the reservations protocol's invariants over randomized
// conflict graphs. The event log is the witness: EvReserve, EvReserveLost
// and EvCommit all pack round<<32|input, so the per-round reserve, loss
// and commit sets can be reconstructed exactly regardless of lane or
// timestamp interleaving, and the protocol's claims become checkable:
//
//  1. priority: the lowest-indexed input reserving in a round always
//     commits in that round (guaranteed progress);
//  2. isolation: no input commits in a round where a lower-indexed
//     reserver shares a footprint slot with it;
//  3. termination: the carried-forward set strictly shrinks — round r+1's
//     reservers are exactly round r's losers;
//  4. accounting: Stats.Rounds, Stats.ReservationConflicts and the
//     observer counters reconcile with the event log;
//  5. placement: a round's winners are spread over the lanes, and whether
//     they run there or on the coordinator never moves the round structure;
//  6. exactly once: every input is committed by one EvCommit or lies in one
//     EvConventional group (a streak's), never both and never neither.
//
// Each graph runs under a controller, where every group runs rounds, and
// free at 1, 2 and 4 workers, where streaks replace the groups the run's own
// measurements say cannot fan out; the claims hold for the groups that ran
// rounds, and claim 6 over the whole run.
package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// mslotInput touches a random subset of slots, so rounds mix disjoint
// commits with multi-way conflicts.
type mslotInput struct {
	Slots []int
	Val   float64
}

func mslotDep() *core.Dependence[mslotInput, []float64, float64] {
	compute := func(_ *rng.Source, in mslotInput, s []float64) (float64, []float64) {
		out := 0.0
		for _, sl := range in.Slots {
			s[sl] += in.Val
			out += s[sl]
		}
		return out, s
	}
	ops, reserve := slotted(func(in mslotInput) []int { return in.Slots })
	return core.New(compute, nil, ops).WithReserve(reserve)
}

// randomConflictGraph deals n inputs over k slots with footprints of 1-3
// distinct slots.
func randomConflictGraph(n, k int, seed uint64) []mslotInput {
	r := rng.New(seed)
	ins := make([]mslotInput, n)
	for i := range ins {
		width := 1 + int(r.Uint64()%3)
		if width > k {
			width = k
		}
		seen := map[int]bool{}
		var slots []int
		for len(slots) < width {
			sl := int(r.Uint64() % uint64(k))
			if !seen[sl] {
				seen[sl] = true
				slots = append(slots, sl)
			}
		}
		sort.Ints(slots)
		ins[i] = mslotInput{Slots: slots, Val: float64(i) + 0.5}
	}
	return ins
}

// roundKey identifies one reserve/check/commit round of one group.
type roundKey struct {
	group int32
	round int
}

func intersects(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func TestReservationInvariantsProperty(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		seed := uint64(0x9E3779B97F4A7C15*uint64(trial) + 0x1CEB00DA)
		r := rng.New(seed)
		n := 16 + int(r.Uint64()%49) // 16..64
		k := 3 + int(r.Uint64()%6)   // 3..8
		g := 2 + int(r.Uint64()%8)   // 2..9, always < n so speculation engages
		workers := 1 + int(r.Uint64()%8)
		inputs := randomConflictGraph(n, k, seed^0xFEED)
		checkReservationLog(t, fmt.Sprintf("trial %d controlled", trial), inputs, k, g, workers, seed, sched.NewRandom(seed))
		for _, workers := range []int{1, 2, 4} {
			checkReservationLog(t, fmt.Sprintf("trial %d free w=%d", trial, workers), inputs, k, g, workers, seed, nil)
		}
	}
}

// checkReservationLog runs the graph once and checks the protocol's claims
// against the run's event log.
func checkReservationLog(t *testing.T, name string, inputs []mslotInput, k, g, workers int, seed uint64, ctl sched.Controller) {
	t.Helper()
	n := len(inputs)
	ob := obs.NewObserver(8, 4096)
	st := runPropTrial(t, inputs, k, g, workers, seed, ob, ctl)

	if got := ob.Tracer.Dropped(); got != 0 {
		t.Fatalf("%s: tracer dropped %d events; ring too small for the proof", name, got)
	}
	reserves := map[roundKey][]int{}
	losses := map[roundKey][]int{}
	commits := map[roundKey][]int{}
	times := make([]int, n) // how often input i was committed, either way
	totalCommits, totalLosses, totalReserves, conventional := 0, 0, 0, 0
	for _, ev := range ob.Tracer.Snapshot() {
		round, input := core.SplitReservationArg(ev.Arg)
		key := roundKey{ev.Group, round}
		switch ev.Kind {
		case obs.EvReserve:
			reserves[key] = append(reserves[key], input)
			totalReserves++
		case obs.EvReserveLost:
			losses[key] = append(losses[key], input)
			totalLosses++
		case obs.EvCommit:
			commits[key] = append(commits[key], input)
			times[input]++
			totalCommits++
		case obs.EvConventional:
			start := int(ev.Group) * g
			for i := start; i < start+int(ev.Arg); i++ {
				times[i]++
			}
			conventional += int(ev.Arg)
		}
	}
	for key := range reserves {
		sort.Ints(reserves[key])
		sort.Ints(losses[key])
		sort.Ints(commits[key])
	}

	if len(reserves) != st.Rounds {
		t.Fatalf("%s: %d distinct rounds in the log, Stats.Rounds %d",
			name, len(reserves), st.Rounds)
	}
	if totalLosses != st.ReservationConflicts {
		t.Fatalf("%s: %d losses in the log, Stats.ReservationConflicts %d",
			name, totalLosses, st.ReservationConflicts)
	}
	if totalCommits+conventional != n || conventional != st.ConventionalInputs {
		t.Fatalf("%s: %d commits and %d conventional inputs (Stats: %d) for %d inputs",
			name, totalCommits, conventional, st.ConventionalInputs, n)
	}
	for i, c := range times {
		if c != 1 {
			t.Fatalf("%s: input %d committed %d times", name, i, c)
		}
	}
	// Under a controller no group declines; with one chunk per wave
	// every group does, and group 1 is the first streak.
	if ctl != nil && conventional != 0 || ctl == nil && workers == 1 && conventional == 0 {
		t.Fatalf("%s: %d conventional inputs", name, conventional)
	}
	if totalReserves != totalCommits+totalLosses {
		t.Fatalf("%s: %d reserves, want commits+losses = %d",
			name, totalReserves, totalCommits+totalLosses)
	}
	core.CheckFacts(t, name, ob, st)

	for key, res := range reserves {
		committed := commits[key]
		lost := losses[key]
		// Every reserver either commits or carries forward, exclusively.
		both := append(append([]int{}, committed...), lost...)
		sort.Ints(both)
		if !reflect.DeepEqual(both, res) {
			t.Fatalf("%s: group %d round %d: reservers %v != commits %v + losses %v",
				name, key.group, key.round, res, committed, lost)
		}
		// 1. The lowest reserver always commits.
		if len(committed) == 0 || committed[0] != res[0] {
			t.Fatalf("%s: group %d round %d: lowest reserver %d did not commit (%v)",
				name, key.group, key.round, res[0], committed)
		}
		// 2. A committed input shares no slot with any lower-indexed
		// reserver of the same round.
		for _, c := range committed {
			for _, o := range res {
				if o >= c {
					break
				}
				if intersects(inputs[c].Slots, inputs[o].Slots) {
					t.Fatalf("%s: group %d round %d: input %d committed over lower reserver %d sharing a slot",
						name, key.group, key.round, c, o)
				}
			}
		}
		// 3. The next round's reservers are exactly this round's losers.
		next := roundKey{key.group, key.round + 1}
		if nr, ok := reserves[next]; ok {
			if !reflect.DeepEqual(nr, lost) {
				t.Fatalf("%s: group %d round %d: losers %v, next round reserves %v",
					name, key.group, key.round, lost, nr)
			}
		} else if len(lost) != 0 {
			t.Fatalf("%s: group %d round %d: %d losers but no next round",
				name, key.group, key.round, len(lost))
		}
		if len(res) > 0 && key.round > 0 {
			prev := reserves[roundKey{key.group, key.round - 1}]
			if len(res) >= len(prev) {
				t.Fatalf("%s: group %d round %d: pending grew %d -> %d",
					name, key.group, key.round, len(prev), len(res))
			}
		}
	}
}

// runPropTrial runs the reservations engine over the graph and asserts the
// output equals the sequential baseline before handing back the stats.
func runPropTrial(t *testing.T, inputs []mslotInput, k, g, workers int, seed uint64, ob *obs.Observer, ctl sched.Controller) core.Stats {
	t.Helper()
	seqOuts, seqFinal, _ := mslotDep().Run(inputs, make([]float64, k), core.Options{Seed: seed})
	outs, final, st := mslotDep().Run(inputs, make([]float64, k), core.Options{
		UseAux: true, Protocol: core.ProtocolReservations,
		GroupSize: g, Workers: workers, Seed: seed, Obs: ob, Sched: ctl,
	})
	if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
		t.Fatalf("reservations diverged from sequential (n=%d k=%d g=%d w=%d)",
			len(inputs), k, g, workers)
	}
	return st
}

// modSlotRun runs n inputs (input i touches slot i%k alone, group size 8)
// under reservations at the given worker count; work, when non-nil, is
// called inside every compute with the input's index.
func modSlotRun(n, k, workers int, work func(i int)) ([]float64, []float64, core.Stats) {
	compute := func(_ *rng.Source, in int, s []float64) (float64, []float64) {
		if work != nil {
			work(in)
		}
		s[in%k] += float64(in) + 0.5
		return s[in%k], s
	}
	ops, reserve := slotted(func(in int) []int { return []int{in % k} })
	inputs := countUp(n)
	opts := core.Options{Seed: 11}
	if workers > 0 {
		opts = core.Options{
			UseAux: true, Protocol: core.ProtocolReservations,
			GroupSize: 8, Workers: workers, Seed: 11,
		}
	}
	return core.New(compute, nil, ops).WithReserve(reserve).Run(inputs, make([]float64, k), opts)
}

// TestRoundWinnersSpreadAcrossLanes: a round's winners are chunked over the
// lanes, not the pending set. With footprints i%4 the first round of a
// group of 8 has winners 0..3 and losers 4..7; every compute of that round
// blocks until two computes have begun, so the run finishes only if two
// lanes each got a winner. Chunking the pending set hands lane 0 all four.
func TestRoundWinnersSpreadAcrossLanes(t *testing.T) {
	var begun atomic.Int32
	two := make(chan struct{})
	type result struct {
		outs, final []float64
		st          core.Stats
	}
	done := make(chan result, 1)
	go func() {
		outs, final, st := modSlotRun(16, 4, 2, func(i int) {
			if i < 4 {
				if begun.Add(1) == 2 {
					close(two)
				}
				<-two
			}
		})
		done <- result{outs, final, st}
	}()
	select {
	case r := <-done:
		seqOuts, seqFinal, _ := modSlotRun(16, 4, 0, nil)
		if !reflect.DeepEqual(r.outs, seqOuts) || !reflect.DeepEqual(r.final, seqFinal) {
			t.Fatal("reservations diverged from sequential")
		}
		if r.st.Rounds != 4 || r.st.Aborts != 0 {
			t.Fatalf("not a clean reservations run: %+v", r.st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: the first round's winners all sit on one lane")
	}
}

// oneChunkStreaks reports which of a run's groups are conventional when
// every wave has one chunk (one worker, or one winner per round), so that
// every group that runs rounds declines: group 0 runs rounds, then streaks of
// 1, 2, 4, ... groups alternate with one probing group each.
func oneChunkStreaks(groups int) []bool {
	conventional := make([]bool, groups)
	for j, k := 1, 1; j < groups; j, k = j+k+1, 2*k {
		for s := j; s < min(j+k, groups); s++ {
			conventional[s] = true
		}
	}
	return conventional
}

// TestReservationGranularityRule pins what the run's own fan-out
// measurements decide. The same inputs run with computes three orders of
// magnitude apart. At a millisecond (slept, so lanes overlap on any
// GOMAXPROCS) every round of four winners goes to the pool and no group is
// conventional. At well under a microsecond a fan-out cannot win its cost
// back: after the waves that measure it the rounds run on the coordinator,
// their groups decline, and most of the run is conventional streaks. With
// one worker every wave has one chunk and the shape is fixed whatever the
// compute costs. The groups that ran rounds ran the same rounds everywhere
// — two of four winners per group of eight — and outputs and final state
// equal the sequential run's.
func TestReservationGranularityRule(t *testing.T) {
	const k, g = 4, 8
	slow := func(int) { time.Sleep(time.Millisecond) }
	for _, c := range []struct {
		name string
		n    int
		work func(int)
	}{{"sub-microsecond", 1024, nil}, {"millisecond", 32, slow}} {
		seqOuts, seqFinal, _ := modSlotRun(c.n, k, 0, nil)
		oneChunk := 0
		for _, conventional := range oneChunkStreaks(c.n / g) {
			if conventional {
				oneChunk += g
			}
		}
		for _, workers := range []int{1, 2, 4} {
			outs, final, st := modSlotRun(c.n, k, workers, c.work)
			if !reflect.DeepEqual(outs, seqOuts) || !reflect.DeepEqual(final, seqFinal) {
				t.Fatalf("%s w=%d: reservations diverged from sequential", c.name, workers)
			}
			protocol := (c.n - st.ConventionalInputs) / g // groups that ran rounds
			rounds := 2 * protocol
			if st.ConventionalInputs%g != 0 || st.Rounds != rounds || st.ReservationConflicts != 4*protocol || st.SpeculativeCommits != 6*protocol || st.Aborts != 0 {
				t.Fatalf("%s w=%d: round structure moved: %+v", c.name, workers, st)
			}
			tasks := st.Steals + st.LocalHits
			switch {
			case workers == 1 && (tasks != 0 || st.ConventionalInputs != oneChunk):
				t.Fatalf("%s w=1: %d pool tasks and %d conventional inputs for one-chunk waves, want 0 and %d", c.name, tasks, st.ConventionalInputs, oneChunk)
			case workers > 1 && c.work == nil && st.ConventionalInputs < c.n/2:
				t.Fatalf("%s w=%d: %d of %d sub-microsecond inputs conventional, want most", c.name, workers, st.ConventionalInputs, c.n)
			case workers > 1 && c.work != nil && (st.ConventionalInputs != 0 || tasks != int64(rounds*min(workers, k))):
				t.Fatalf("%s w=%d: %d conventional inputs and %d pool tasks, want none and every one of %d rounds fanned out %d wide", c.name, workers, st.ConventionalInputs, tasks, rounds, min(workers, k))
			}
		}
	}
}

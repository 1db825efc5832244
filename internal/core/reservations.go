// Deterministic-reservations protocol: the engine's second speculation
// mode (ROADMAP "Second speculation protocol"), adapted from parlaylib's
// speculative_for ("Internally deterministic parallel algorithms can be
// fast"). Where the aux protocol guesses a group's start state and
// validates it after the fact, reservations never guess: each group's
// pending inputs run rounds of
//
//	decide  — the coordinator evaluates every pending input's footprint
//	          against the committed state and write-mins its index into
//	          the slots it touches, in ascending input order; an input
//	          holding the minimum on all its slots wins, the others
//	          carry forward into the next round;
//	compute — the winners, chunked evenly over the lanes, each run the
//	          compute from a snapshot that clones the slots they
//	          reserved — the round's only parallel phase;
//	commit  — the coordinator merges the winners' states in ascending
//	          input order and retires their outputs.
//
// The lowest pending index always wins every slot it reserves, so each
// round commits at least one input and the protocol terminates with no
// aux code, no validation and no redo: sequential order is preserved by
// construction.
// Every input's random stream is pre-split on the coordinator in input
// order and attempts receive value copies, so the outputs are
// byte-identical to the sequential baseline — including under contained
// panics, deadlines and breaker denials — as long as the footprint
// contract holds (see ReserveOps).
//
// A group runs rounds only when that can pay, ruled once before its first
// round (roundsPay): when the winners beyond the largest chunk of its widest
// possible wave — the work a fan-out overlaps — cost more, at the run's least
// time per compute, than a fixed price, so a run's shape is a function of the
// seed, the options and the host's grain. Inside such a group every wave of
// more than one chunk goes to the pool.
//
// The first group that does not pay starts the run's conventional tail: the
// groups from it to the end run in streaks (runStreak) of k = 1, 2, 4, …
// groups, each streak's inputs in index order, with their pre-split sources,
// in place on one Clone of the committed state, which stays untouched as the
// streak's pre-image until the streak completes and replaces it. The grain
// only falls and no later group is wider, so no later group would pay; and a
// failure inside a streak — the run fails at that group, the whole streak
// pending — redoes no more than the run had done before it (§4.6). A run
// under a sched.Controller or the FootprintCheck oracle runs every group's
// rounds and has no tail.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Protocol selects the engine's speculation protocol.
type Protocol int

const (
	// ProtocolAux is the paper's §3.1 aux-state speculation: speculative
	// start states from auxiliary code, validated at group boundaries.
	ProtocolAux Protocol = iota
	// ProtocolReservations is the deterministic reserve/check/commit
	// protocol: priority-ordered slot reservations, lower-indexed inputs
	// win conflicts, losers carry forward.
	ProtocolReservations
)

// String returns the protocol's stable name.
func (p Protocol) String() string {
	switch p {
	case ProtocolAux:
		return "aux"
	case ProtocolReservations:
		return "reservations"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol inverts String.
func ParseProtocol(s string) (Protocol, bool) {
	switch s {
	case "aux":
		return ProtocolAux, true
	case "reservations":
		return ProtocolReservations, true
	}
	return ProtocolAux, false
}

// ReserveOps decomposes a dependence's state into integer slots for the
// reservations protocol. The developer contract mirrors MatchAny's role in
// the aux protocol: Footprint must cover every slot the input's compute
// reads or writes (reads included — a read of a slot a lower-indexed input
// will write is a conflict), and computes with disjoint footprints must
// commute, because the protocol merges winners' states out of sequential
// order. Under that contract the run's outputs are byte-identical to the
// sequential baseline.
//
// With CloneSlots set, a winner's snapshot is private only in the slots it
// reserved; every other slot is the committed state's own. A compute that
// writes through a reference inside an undeclared slot therefore writes
// committed state, racing the round's other winners — undetected unless
// Options.FootprintCheck is on, which runs every compute on a whole-state
// Clone and squashes the group before anything of it commits.
//
// A Dependence without ReserveOps still supports ProtocolReservations via
// a built-in whole-state single slot: every pending input conflicts, one
// input commits per round, and parallelism degenerates to ordered rounds —
// the honest result for states that cannot be decomposed.
type ReserveOps[I, S any] struct {
	// NumSlots returns the number of state slots, evaluated once per run
	// on a clone of the initial state. Footprint results must stay in
	// [0, NumSlots).
	NumSlots func(initial S) int
	// Footprint returns the slots the input's compute touches given the
	// state snapshot it would run from. It must be deterministic in
	// (in, s) and must not mutate s. The coordinator evaluates it once per
	// round the input is pending in.
	Footprint func(in I, s S) []int
	// Merge copies the given slots of src into dst and returns the
	// merged state. dst is private to the merge (with CloneSlots set, only
	// as a container: Merge must replace its slots, never write through
	// them); src is a winner's returned state; only the winner's footprint
	// slots may be taken from it.
	Merge func(dst, src S, slots []int) S
	// CloneSlots is the optional footprint-only clone: a state holding deep
	// copies of the given slots of s and sharing every other slot with s
	// read-only (no slots: a private container over shared slots). When
	// set — and the FootprintCheck oracle is off — winners run from
	// CloneSlots(committed, footprint) instead of a whole-state Clone.
	CloneSlots func(s S, slots []int) S
	// Touched is the optional hook behind the Options.FootprintCheck
	// oracle: given the state a compute started from and the state it
	// returned, it reports the slots whose contents differ. When set and
	// the oracle is enabled, every winner's touched slots are
	// cross-checked against its declared Footprint before commit; a slot
	// touched but not declared squashes the group and falls back
	// sequentially. Writes that happen to store the old value back are
	// invisible to a state diff, so Touched is a sanitizer, not a proof.
	Touched func(before, after S) []int
}

// WithReserve attaches reservation ops to the dependence, enabling
// slot-level parallelism under ProtocolReservations. NumSlots, Footprint
// and Merge are required (CloneSlots and Touched are optional); it returns d for chaining.
func (d *Dependence[I, S, O]) WithReserve(ops ReserveOps[I, S]) *Dependence[I, S, O] {
	if ops.NumSlots == nil || ops.Footprint == nil || ops.Merge == nil {
		panic("core: WithReserve needs NumSlots, Footprint and Merge")
	}
	d.reserve = &ops
	return d
}

// SlotOps is the slice-of-slots contract, written once: for a state that is
// one T per slot it returns the StateOps and the ReserveOps to hand to New
// and WithReserve. footprint names the slots an input's compute touches
// (a fresh slice per call — the engine holds it across the round). Clone
// copies every slot through cloneSlot (nil: by assignment), CloneSlots
// only the named ones — so a compute must reach its state through its
// footprint's slots alone (see ReserveOps) — Merge takes exactly the
// winner's footprint slots, and Touched — present only when sameSlot is
// non-nil — reports the slots sameSlot says differ. Callers that also run
// the aux protocol set MatchAny on the returned StateOps.
func SlotOps[I, T any](footprint func(I) []int, cloneSlot func(T) T, sameSlot func(a, b T) bool) (StateOps[[]T], ReserveOps[I, []T]) {
	ops := StateOps[[]T]{Clone: slices.Clone[[]T]}
	if cloneSlot != nil {
		ops.Clone = func(s []T) []T {
			cp := make([]T, len(s))
			for i := range s {
				cp[i] = cloneSlot(s[i])
			}
			return cp
		}
	}
	reserve := ReserveOps[I, []T]{
		NumSlots:  func(initial []T) int { return len(initial) },
		Footprint: func(in I, _ []T) []int { return footprint(in) },
		Merge: func(dst, src []T, slots []int) []T {
			for _, sl := range slots {
				dst[sl] = src[sl]
			}
			return dst
		},
		CloneSlots: func(s []T, slots []int) []T {
			cp := slices.Clone(s)
			if cloneSlot != nil {
				for _, sl := range slots {
					cp[sl] = cloneSlot(s[sl])
				}
			}
			return cp
		},
	}
	if sameSlot != nil {
		reserve.Touched = func(before, after []T) []int {
			var touched []int
			for i := range before {
				if i < len(after) && !sameSlot(before[i], after[i]) {
					touched = append(touched, i)
				}
			}
			return touched
		}
	}
	return ops, reserve
}

// ReservationArg packs a reservation event's round (0-based within its
// group) and input index into one trace argument: round<<32 | input.
func ReservationArg(round, input int) int64 {
	return int64(round)<<32 | int64(uint32(input))
}

// resvRun is the per-run state of one reservations execution: the run
// frame plus the policy's tables. Runs recycle it through its type's free
// list (recycled): every slice keeps its capacity between runs
// (state-holding elements cleared on release), and the wave tasks with
// their closures are created once per chunk slot. Only the outputs slice
// is allocated fresh — it is returned to the caller.
type resvRun[I, S, O any] struct {
	runFrame
	d      *Dependence[I, S, O]
	inputs []I
	// srcs are the pre-split per-input random sources (by value: every
	// attempt copies, so squashed attempts never consume the stream).
	srcs []rng.Source
	// oracle is whether the FootprintCheck sanitizer runs (enabled and the
	// dependence has a Touched hook). The wave width is the frame's lanes.
	oracle bool
	emit   Emit[O]

	// table is the reservation table, one write-min cell per state slot,
	// reset to the sentinel len(inputs) before each round's decisions. Only
	// the coordinator touches it.
	table []int64
	// failed holds the run's groupFailure (failNone while healthy):
	// lanes CAS failPanic on contained panics, the coordinator stores
	// failTimeout on an expired deadline.
	failed  atomic.Int32
	failArg int64

	// invocations, conflicts and laneNS are the coordinator's running
	// counts over the rounds (streaks file their own) — compute calls,
	// inputs that lost a slot, and nanoseconds chunks spent computing — the
	// first and last folded in from each chunk's laneWork after its barrier.
	// fpViolations, the slots the FootprintCheck oracle caught outside a
	// declared footprint, is counted by the lanes themselves. Stats gets
	// them when the run ends.
	invocations, laneNS int64
	conflicts           int
	fpViolations        atomic.Int64
	// committed counts inputs committed by rounds and streaks (not fallback).
	committed int
	shared    S
	outs      []O

	// panicMu guards panics, the waves' contained user-code panic records
	// (value+stack); lanes can fail concurrently, and the fallback moves
	// them into Stats.Panics once every lane is past its barrier.
	panicMu sync.Mutex
	panics  []*PanicError

	// Per-group round state, recycled across groups and runs: pending
	// input indexes, the round's winners among them, and per input (input
	// i's at [i-gstart]) its footprint and — written by the lane that
	// computed it, read by the coordinator after the barrier — the state
	// it returned.
	pending []int
	winners []int
	fps     [][]int
	states  []S

	// Wave dispatch state: waveTasks[c] is the recycled pool task for
	// chunk c (created once per slot) and waveDone[c] what it reports
	// back; chunk c of waveChunks computes the winners
	// waveWinners[c*n/waveChunks : (c+1)*n/waveChunks].
	waveTasks   []pool.Task
	waveDone    []laneWork
	waveWinners []int
	waveChunks  int
	waveWG      sync.WaitGroup
	// grain is the least lane nanoseconds one compute of the run took
	// (untimed before the first returned): what roundsPay prices a group at.
	grain int64

	// Current group context: group index, group start input, and the
	// 0-based round.
	gj, gstart, ground int
}

// laneWork is what one chunk of a compute wave did: computes that
// returned, nanoseconds on its lane, and the least of those one compute took
// (untimed when none returned).
type laneWork struct{ calls, ns, least int64 }

// getResvRun fetches (or builds) a recycled reservations run state for d.
func (d *Dependence[I, S, O]) getResvRun() *resvRun[I, S, O] {
	r := recycled[resvRun[I, S, O]]().Get()
	if r == nil {
		r = new(resvRun[I, S, O])
	}
	r.d = d
	return r
}

// release clears every state-holding reference, the Dependence included
// (the outputs slice is the caller's now and is simply forgotten), and
// parks the run state for reuse.
func (r *resvRun[I, S, O]) release() {
	var zeroS S
	r.runFrame = runFrame{}
	r.d, r.inputs, r.emit, r.outs = nil, nil, nil, nil
	r.shared = zeroS
	clear(r.fps[:cap(r.fps)])
	clear(r.states[:cap(r.states)])
	clear(r.panics[:cap(r.panics)])
	r.panics = r.panics[:0]
	r.waveWinners = nil
	recycled[resvRun[I, S, O]]().Put(r)
}

// fail marks the run failed with the first failure observed; pe, when
// non-nil, is the contained user-code panic behind it, kept for
// Stats.Panics. Safe to call from lanes.
func (r *resvRun[I, S, O]) fail(why groupFailure, pe *PanicError) {
	if pe != nil {
		r.panicMu.Lock()
		r.panics = append(r.panics, pe)
		r.panicMu.Unlock()
	}
	r.failed.CompareAndSwap(int32(failNone), int32(why))
}

// runReservations executes the deterministic-reservations protocol over
// the run frame. It is the ProtocolReservations counterpart of
// runSpeculative, reached from runAll with speculation admitted (UseAux
// set, g < len(inputs), breaker allowing). A group failure squashes the
// remaining inputs into the sequential fallback (§3.1: no further
// speculation for the current input vector).
func (d *Dependence[I, S, O]) runReservations(root *rng.Source, inputs []I, initial S, g int, opts *Options, st *Stats, emit Emit[O]) ([]O, S) {
	n := len(inputs)
	r := d.getResvRun()
	r.runFrame.begin(n, g, 0, opts, st)
	defer r.release()
	if cap(r.srcs) < n {
		r.srcs = make([]rng.Source, n)
	}
	r.srcs = r.srcs[:n]
	for i := range r.srcs {
		root.SplitInto(&r.srcs[i])
	}

	r.inputs, r.emit = inputs, emit
	r.oracle = opts.FootprintCheck && d.reserve != nil && d.reserve.Touched != nil
	r.shared = d.ops.Clone(initial)
	r.outs = make([]O, n) // returned to the caller, never recycled
	r.failed.Store(int32(failNone))
	r.failArg = 0
	r.invocations, r.laneNS, r.conflicts, r.committed = 0, 0, 0, 0
	r.fpViolations.Store(0)
	r.grain = untimed

	slots := 1
	if d.reserve != nil {
		if pe := contain(func() { slots = max(d.reserve.NumSlots(r.shared), 1) }); pe != nil {
			// NumSlots panicked: contained, but no parallel protocol is
			// possible — no group ever starts, nothing is squashed, and
			// the whole vector runs sequentially.
			r.fail(failPanic, pe)
			r.notePanic(0, 0, nil)
			r.noteAbort(0, 0, r.stamp())
			r.fallBack(0, 0, 0, nil)
			return r.outs, r.shared
		}
	}
	if cap(r.table) < slots {
		r.table = make([]int64, slots)
	}
	r.table = r.table[:slots]

	r.lease(opts, r.lanes)
	defer r.finish()
	// Groups run rounds while they pay (always under a controller or the
	// oracle); the first that does not starts the conventional tail, in
	// streaks of 1, 2, 4, … groups.
	always := r.ctl != nil || opts.FootprintCheck
	ok, j := true, 0
	for ; ok && j < r.numGroups && (always || r.roundsPay(j)); j++ {
		var pending []int
		if pending, ok = r.runGroup(j); !ok {
			r.abort(j, j, pending)
		}
	}
	for k := 1; ok && j < r.numGroups; k *= 2 {
		last := min(j+k, r.numGroups)
		ok, j = r.runStreak(j, last), last
	}
	st.Invocations += r.invocations
	st.UsefulInvocations += int64(r.committed)
	st.ReservationConflicts = r.conflicts
	st.FootprintViolations = int(r.fpViolations.Load())
	return r.outs, r.shared
}

// runGroup runs group j's decide/compute/commit rounds to completion,
// reporting success and — on failure — the inputs still pending.
func (r *resvRun[I, S, O]) runGroup(j int) ([]int, bool) {
	start, end := r.bounds(j)
	width := end - start
	r.gj, r.gstart = j, start
	pending := r.pendingRange(start, end)
	r.fps = cleared(r.fps, width)
	r.states = cleared(r.states, width)

	// One reading starts the group, for its event's stamp and its deadline;
	// a run with neither skips the clock.
	var groupStart int64
	if r.o != nil || r.timeout > 0 {
		groupStart = r.now()
	}
	r.o.NoteAt(j, groupStart, obs.EvGroupStart, int32(j), int64(start))
	// laneNS up to committedNS was spent on rounds that committed; only a
	// group's last round can break, and everything it computed is waste.
	laneBase, committedNS := r.laneNS, r.laneNS
	rounds := 0
	for len(pending) > 0 {
		// The deadline is checked once per round on the coordinator.
		if r.timeout > 0 {
			if expired, elapsedNS := r.expired(groupStart, r.lane); expired {
				r.failArg = elapsedNS
				r.fail(failTimeout, nil)
				break
			}
		}
		r.ground = rounds
		rounds++
		r.st.Rounds++
		if !r.runRound(pending) {
			break
		}
		committedNS = r.laneNS
		// Losers carry forward: pending minus the winners, both ascending.
		next, w := pending[:0], 0
		for _, i := range pending {
			if w < len(r.winners) && r.winners[w] == i {
				w++
			} else {
				next = append(next, i)
			}
		}
		pending = next
	}
	ok := r.failed.Load() == int32(failNone)
	// Lane CPU under reservations is compute only: deciding the
	// reservations is coordinator time, like the commit.
	// One reading ends the group: its account's events and its finish.
	now := r.stamp()
	r.noteLaneCPU(j, committedNS-laneBase, r.laneNS-committedNS, now)
	r.o.NoteRounds(rounds)
	r.o.NoteAt(j, now, obs.EvGroupFinish, int32(j), int64(width-len(pending)))
	if ok && r.emit != nil {
		// Group complete: its outputs are final; stream them in input order
		// (commits happened out of order, so emission buffers per group).
		for i := start; i < end; i++ {
			r.emit(i, r.outs[i])
		}
	}
	return pending, ok
}

// pendingRange refills the recycled pending buffer with the inputs [a, b).
func (r *resvRun[I, S, O]) pendingRange(a, b int) []int {
	r.pending = r.pending[:0]
	for i := a; i < b; i++ {
		r.pending = append(r.pending, i)
	}
	return r.pending
}

// runRound runs one decide/compute/commit round over the pending inputs of
// the group in flight, reporting whether it committed.
func (r *resvRun[I, S, O]) runRound(pending []int) bool {
	if !r.decide(pending) {
		return false
	}
	r.computeWave(r.winners)
	if r.failed.Load() != int32(failNone) {
		return false
	}
	r.yield(sched.PointCommit, r.lane)
	return r.commitRound(r.winners)
}

// decide settles the round's reservations on the coordinator: in ascending
// input order each pending input's footprint is evaluated against the
// committed state and write-min'ed into the table. Every lower-indexed
// reserver has already written when input i's turn comes, so i wins — and
// joins r.winners — exactly if none of its cells holds a lower index. A
// Footprint panic, or a slot out of range, is contained and fails the run.
func (r *resvRun[I, S, O]) decide(pending []int) bool {
	for s := range r.table {
		r.table[s] = int64(r.n)
	}
	r.winners = r.winners[:0]
	now := r.stamp() // the decide phase's one reading stamps every reservation
	pe := contain(func() {
		for _, i := range pending {
			r.yield(sched.PointReserve, r.lane)
			fp := r.footprintOf(i)
			r.fps[i-r.gstart] = fp
			won := true
			for _, sl := range fp {
				if r.table[sl] < int64(i) {
					won = false
				} else {
					r.table[sl] = int64(i)
				}
			}
			r.o.NoteAt(obs.LaneCoord, now, obs.EvReserve, int32(r.gj), ReservationArg(r.ground, i))
			if won {
				r.winners = append(r.winners, i)
			} else {
				r.conflicts++
				r.o.NoteAt(obs.LaneCoord, now, obs.EvReserveLost, int32(r.gj), ReservationArg(r.ground, i))
			}
		}
	})
	if pe != nil {
		r.fail(failPanic, pe)
	}
	return pe == nil
}

// footprintOf evaluates the input's footprint against the committed
// state. Out-of-range slots are a contract violation surfaced as a panic,
// which decide contains like any user-code panic (the group falls back
// sequentially, outputs intact).
func (r *resvRun[I, S, O]) footprintOf(i int) []int {
	if r.d.reserve == nil {
		return wholeStateFootprint
	}
	fp := r.d.reserve.Footprint(r.inputs[i], r.shared)
	for _, sl := range fp {
		if sl < 0 || sl >= len(r.table) {
			panic(fmt.Sprintf("core: footprint slot %d outside [0,%d)", sl, len(r.table)))
		}
	}
	return fp
}

// wholeStateFootprint is the built-in single-slot footprint used when the
// dependence has no ReserveOps: every input conflicts on slot 0.
var wholeStateFootprint = []int{0}

// snapshot returns a state private in the given slots of the committed
// one: the dependence's footprint-only clone when it has one, else — and
// always under the oracle, which must catch a compute that reaches past
// its footprint before that touches committed state — a whole-state Clone.
func (r *resvRun[I, S, O]) snapshot(slots []int) S {
	if r.d.reserve != nil && r.d.reserve.CloneSlots != nil && !r.oracle {
		return r.d.reserve.CloneSlots(r.shared, slots)
	}
	return r.d.ops.Clone(r.shared)
}

// computeOne runs winner i's compute from a snapshot of the committed
// state, which is immutable until the round commits.
func (r *resvRun[I, S, O]) computeOne(lane, i int) {
	k := i - r.gstart
	snap := r.snapshot(r.fps[k])
	// The oracle needs its own pristine clone: compute may mutate
	// snap in place, so snap cannot serve as the "before" state.
	var before S
	if r.oracle {
		before = r.d.ops.Clone(r.shared)
	}
	src := r.srcs[i]
	out, next := r.d.compute(&src, r.inputs[i], snap)
	r.outs[i] = out
	r.states[k] = next
	if !r.oracle {
		return
	}
	for _, sl := range r.d.reserve.Touched(before, next) {
		if slices.Contains(r.fps[k], sl) {
			continue
		}
		// A lying footprint: the winner touched a slot it never
		// reserved, so this round's winner set is not conflict-free.
		// Nothing from the round commits (the group breaks before
		// commitRound) and the pending inputs re-run sequentially from
		// the committed state.
		r.fpViolations.Add(1)
		r.o.Note(lane, obs.EvFootprintViolation, int32(r.gj), int64(sl))
		r.fail(failFootprint, nil)
	}
}

// commitRound merges the round's winners into the committed state in
// ascending input order and retires their outputs. A Merge panic is
// contained: the state under merge is a private container, so the
// committed state is intact for the fallback and commitRound reports
// failure with nothing retired.
func (r *resvRun[I, S, O]) commitRound(winners []int) bool {
	if len(winners) == 0 {
		// The lowest pending index wins every slot it reserves; an empty
		// round is an engine bug, not a user-code failure.
		panic("core: reservation round committed nothing")
	}
	start := r.gstart
	if r.d.reserve == nil {
		// Whole-state single slot: exactly one winner (the lowest pending
		// index); adopt its returned state wholesale.
		r.shared = r.states[winners[0]-start]
	} else {
		next := r.snapshot(nil)
		pe := contain(func() {
			for _, i := range winners {
				next = r.d.reserve.Merge(next, r.states[i-start], r.fps[i-start])
			}
		})
		if pe != nil {
			r.fail(failPanic, pe)
			return false
		}
		r.shared = next
	}
	now := r.stamp() // the commit phase's one reading
	for _, i := range winners {
		r.o.NoteAt(obs.LaneCoord, now, obs.EvCommit, int32(r.gj), ReservationArg(r.ground, i))
	}
	r.committed += len(winners)
	// Every winner but the lowest pending index committed in the same
	// round as a lower-indexed pending input: it genuinely ran ahead of
	// sequential order.
	r.noteSpecCommits(len(winners) - 1)
	return true
}

// computeWave runs the round's compute phase: the winners in at most
// r.lanes even chunks, one pool task each — or, without a controller, on the
// coordinator when there is only one chunk. The coordinator steps out of the
// schedule around the submit-and-wait (unqueued tasks run inline on it,
// yielding on their own lanes). The chunk tasks are recycled slots created
// once per chunk index and reused across waves, groups and runs; the wave's
// parameters travel through the wave* fields, published to the workers by
// SubmitBatch and fenced from the next wave by the waveWG barrier.
func (r *resvRun[I, S, O]) computeWave(winners []int) {
	chunks := min(r.lanes, len(winners))
	if r.ctl == nil && chunks == 1 {
		r.file(r.runChunk(r.lane, winners))
		return
	}
	for c := len(r.waveTasks); c < chunks; c++ {
		r.waveTasks = append(r.waveTasks, func() { r.waveTask(c) })
		r.waveDone = append(r.waveDone, laneWork{})
	}
	r.waveWinners, r.waveChunks = winners, chunks
	r.waveWG.Add(chunks)
	r.blocked(func() {
		r.fanOut(r.waveTasks[:chunks])
		r.waveWG.Wait()
	})
	for _, w := range r.waveDone[:chunks] {
		r.file(w)
	}
}

// file folds one chunk's work into the run's counts and its grain.
func (r *resvRun[I, S, O]) file(w laneWork) {
	r.invocations += w.calls
	r.laneNS += w.ns
	r.grain = min(r.grain, w.least)
}

// fanOutPrice is what a fan-out is taken to cost — waking the workers and
// waiting out the barrier — set at least 2.5 times from every benchmarked
// program's grain at 2 and 4 lanes on a 2-CPU host (stream kernels ≤ 5 µs,
// swaptions ≥ 83 µs), so a seed's rulings do not move with the clock's
// noise. untimed is the grain before any chunk returned.
const (
	fanOutPrice = 30_000 // ns
	untimed     = math.MaxInt64
)

// roundsPay rules, before its first round, whether group j runs rounds: when
// nothing is timed yet, or when the winners beyond the largest chunk of its
// widest possible wave — the work a fan-out overlaps — cost more than
// fanOutPrice at the run's grain. That wave holds at most the group's width
// and the slot count (a wave's winners hold disjoint slots) in at most
// r.lanes chunks. A preempted compute cannot raise the grain, and neither the
// grain nor a later group's width can grow, so once a group declines no later
// one would pay.
func (r *resvRun[I, S, O]) roundsPay(j int) bool {
	start, end := r.bounds(j)
	w := min(end-start, len(r.table))
	chunks := min(r.lanes, w)
	return r.grain == untimed || int64(w-(w+chunks-1)/chunks)*r.grain > fanOutPrice
}

// runStreak runs groups [j, last) conventionally: every input in index
// order with its pre-split source, in place on one clone of the committed
// state — no footprint, table, snapshot, merge or round. A group's outputs
// stream when its computes are done; the clone replaces the committed state,
// and the groups' inputs count as conventional, when the last group is. A
// contained panic (the Clone's included) or a deadline found expired — it is
// checked before each input, against the reading that started the group —
// fails the run at that group with the whole streak pending: nothing of it
// was committed, so the fallback recomputes it from the pre-image and streams
// only what was not streamed. The time is coordinator time, filed like an
// inline wave's as lane CPU when the streak resolves: committed against its
// last group, or wasted against the failing one.
func (r *resvRun[I, S, O]) runStreak(j, last int) bool {
	first, _ := r.bounds(j)
	var state S
	var src rng.Source // one for the streak: each input's pre-split source is copied into it
	var ns int64
	i, now := first, r.now() // i is the next input to compute
	for g := j; g < last; g++ {
		start, end := r.bounds(g)
		groupStart := now
		r.o.NoteAt(g, groupStart, obs.EvGroupStart, int32(g), int64(start))
		pe := contain(func() {
			if g == j {
				state = r.d.ops.Clone(r.shared)
			}
			for ; i < end; i++ {
				if r.timeout > 0 {
					if expired, elapsedNS := r.expired(groupStart, r.lane); expired {
						r.failArg = elapsedNS
						r.fail(failTimeout, nil)
						return
					}
				}
				src = r.srcs[i]
				r.outs[i], state = r.d.compute(&src, r.inputs[i], state)
			}
		})
		if pe != nil {
			r.fail(failPanic, pe)
		}
		now = r.now()
		ns += now - groupStart
		r.st.Invocations += int64(i - start)
		if i < end {
			r.noteLaneCPU(g, 0, ns, now)
			r.o.NoteAt(g, now, obs.EvGroupFinish, int32(g), 0)
			r.abort(g, j, r.pendingRange(first, end))
			return false
		}
		r.o.NoteAt(g, now, obs.EvGroupFinish, int32(g), int64(end-start))
		if r.emit != nil {
			for p := start; p < end; p++ {
				r.emit(p, r.outs[p])
			}
			now = r.now() // streaming is not lane time
		}
	}
	r.shared = state
	r.committed += i - first
	r.noteLaneCPU(last-1, ns, 0, now)
	for g := j; g < last; g++ {
		start, end := r.bounds(g)
		r.noteConventional(g, end-start, now)
	}
	return true
}

// waveTask runs chunk c of the wave in flight on schedule lane lane+1+c.
func (r *resvRun[I, S, O]) waveTask(c int) {
	defer r.waveWG.Done()
	lane := r.lane + 1 + c
	if r.ctl != nil {
		defer r.ctl.Done(lane)
	}
	n := len(r.waveWinners)
	r.waveDone[c] = r.runChunk(lane, r.waveWinners[c*n/r.waveChunks:(c+1)*n/r.waveChunks])
}

// runChunk computes the chunk's winners in order, yielding on lane before
// each and reading the clock after each for the chunk's cheapest compute. A
// compute panic is contained (failPanic, value and stack recorded); once the
// run is failed, remaining work bails at its next yield.
func (r *resvRun[I, S, O]) runChunk(lane int, chunk []int) (w laneWork) {
	started := r.now()
	at := started
	w.least = untimed
	pe := contain(func() {
		for _, i := range chunk {
			r.yield(sched.PointReserveCheck, lane)
			if r.failed.Load() != int32(failNone) {
				return
			}
			r.computeOne(lane, i)
			now := r.now()
			w.calls, w.least, at = w.calls+1, min(w.least, now-at), now
		}
	})
	if pe != nil {
		r.fail(failPanic, pe)
	}
	w.ns = r.now() - started
	return w
}

// abort handles the failure of group j with pending inputs uncommitted:
// classify it, squash the uncommitted inputs — from group from on, which is
// j unless j failed inside a streak that began earlier — and fall back.
func (r *resvRun[I, S, O]) abort(j, from int, pending []int) {
	switch groupFailure(r.failed.Load()) {
	case failPanic:
		r.notePanic(j, int64(len(pending)), nil)
	case failTimeout:
		r.noteTimeout(j, r.failArg)
	case failFootprint:
		// The oracle already counted each offending slot (and emitted
		// EvFootprintViolation per slot); only the shared abort/squash/
		// fallback bookkeeping remains.
	}
	r.noteAbort(j, 0, r.stamp())
	fromStart, fromEnd := r.bounds(from)
	r.noteSquash(from, min(len(pending), fromEnd-fromStart))
	start, end := r.bounds(j)
	r.fallBack(j, start, end, pending)
}

// fallBack reprocesses the uncommitted inputs sequentially in ascending
// order from the committed state — each with its pre-assigned random
// source, so the outputs stay byte-identical to the sequential baseline.
// It fills the failed group's pending slots, then streams the whole group
// [start, end) in input order (its committed outputs were never emitted),
// then the tail.
func (r *resvRun[I, S, O]) fallBack(j, start, end int, pending []int) {
	r.noteFallback(j, len(pending)+r.n-end)
	// Every lane is past its barrier, so the waves' panic records are
	// final; the fallback's own follow in the order they happen.
	r.st.Panics = append(r.st.Panics, r.panics...)
	fbStart := r.now()
	for _, i := range pending {
		r.seqOne(i)
	}
	if r.emit != nil {
		for i := start; i < end; i++ {
			r.emit(i, r.outs[i])
		}
	}
	for i := end; i < r.n; i++ {
		r.seqOne(i)
		if r.emit != nil {
			r.emit(i, r.outs[i])
		}
	}
	// The fallback produced committed outputs; file its time against the
	// aborting group, whose squashed work it redid.
	now := r.now()
	r.noteLaneCPU(j, now-fbStart, 0, now)
}

// seqOne processes one input sequentially from the committed state with
// its pre-assigned source. Unlike the aux protocol's fallback, a panic
// here gets one contained retry: the first attempt runs on a clone with a
// value copy of the source, so a panicked attempt leaves the committed
// state and the input's stream untouched, and transient faults (at most
// one per input, the chaos contract) replay deterministically. A second
// panic is a deterministic application bug and propagates.
func (r *resvRun[I, S, O]) seqOne(i int) {
	var out O
	var next S
	src := r.srcs[i]
	pe := contain(func() { out, next = r.d.compute(&src, r.inputs[i], r.d.ops.Clone(r.shared)) })
	r.st.Invocations++
	if pe != nil {
		r.st.Panics = append(r.st.Panics, pe)
		src = r.srcs[i]
		out, next = r.d.compute(&src, r.inputs[i], r.shared)
		r.st.Invocations++
	}
	r.shared = next
	r.outs[i] = out
	r.st.UsefulInvocations++
}

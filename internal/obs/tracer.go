package obs

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// EventKind identifies what a trace event records.
type EventKind uint8

// The event kinds emitted by the engine (internal/core) and the scheduler
// (internal/pool). Engine events key on Event.Group; scheduler events
// (EvLocalHit, EvTaskFinish) key on Event.Lane, the worker id.
const (
	// EvNone is the zero kind; it never appears in a snapshot.
	EvNone EventKind = iota
	// EvGroupStart marks a group execution starting on a worker.
	// Arg is the group's first input index.
	EvGroupStart
	// EvGroupFinish marks a group execution returning (normally or via
	// the squash fast-exit). Arg is the number of outputs produced.
	EvGroupFinish
	// EvAuxProduced marks auxiliary code having produced a group's
	// speculative start state, on the group's lane. Arg packs the
	// auxiliary code's duration and the window length consumed (AuxArg).
	EvAuxProduced
	// EvValidateMatch marks a boundary whose speculative state was
	// accepted. Arg is the number of redos the acceptance consumed.
	EvValidateMatch
	// EvValidateMismatch marks a boundary whose first validation
	// attempt rejected the speculative state.
	EvValidateMismatch
	// EvRedo marks one original-producer re-execution. Arg is the
	// attempt number, starting at 1.
	EvRedo
	// EvAbort marks a boundary that exhausted its redo budget and
	// aborted speculation. Arg is the redo budget consumed.
	EvAbort
	// EvSquash marks one group squashed by an abort. Arg is the number
	// of inputs the squash discards.
	EvSquash
	// EvFallback marks the start of the sequential fallback after an
	// abort. Arg is the number of inputs reprocessed.
	EvFallback
	// EvLocalHit marks a worker dispatching a pool task (the name predates
	// the pool's one queue). Lane is the worker.
	EvLocalHit
	// EvTaskFinish marks a dispatched task completing on its worker.
	EvTaskFinish
	// EvPanic marks a speculative group squashed because user code
	// panicked on its lane (compute, aux, clone, or the boundary's
	// match/redo). Arg is the number of inputs the group covers.
	EvPanic
	// EvGroupTimeout marks a speculative group squashed because its lane
	// exceeded Options.GroupTimeout. Arg is the elapsed nanoseconds when
	// the lane noticed the deadline.
	EvGroupTimeout
	// EvBreakerDenied marks a run whose speculation was suppressed by an
	// open circuit breaker (the run executed sequentially).
	EvBreakerDenied
	// EvReserve marks the reservations coordinator write-min'ing one
	// pending input's slot footprint into a round's reservation table (the
	// deterministic-reservations protocol). Arg packs round<<32 | input
	// index.
	EvReserve
	// EvReserveLost marks an input that found a lower-indexed input
	// holding one of its slots when the round was decided and carried
	// forward to the next round. Arg packs round<<32 | input index.
	EvReserveLost
	// EvCommit marks one input's output committed by the reservations
	// coordinator. Arg packs round<<32 | input index.
	EvCommit
	// EvFootprintViolation marks a winner whose compute touched a state
	// slot outside its declared reservation footprint, caught by the
	// Options.FootprintCheck oracle. Arg is the offending slot.
	EvFootprintViolation
	// EvLaneCPUCommitted attributes lane CPU-time whose results were
	// committed to a group, emitted by the engine at resolution time.
	// Arg is the attributed wall-clock nanoseconds.
	EvLaneCPUCommitted
	// EvLaneCPUWasted attributes lane CPU-time whose results were
	// discarded — aborted, squashed, timed out, or spent on losing
	// reservation attempts. Arg is the attributed nanoseconds.
	EvLaneCPUWasted
	// EvConventional marks one group committed by a conventional streak of
	// the reservations protocol: its inputs ran in index order on the
	// streak's one clone of the committed state, with no reservation round.
	// Emitted when the streak completes. Arg is the group's input count.
	EvConventional

	numEventKinds // sentinel, keep last
)

// String returns the kind's stable exposition name.
func (k EventKind) String() string {
	if int(k) < len(facts) {
		return facts[k].Event
	}
	return "unknown"
}

// LaneCoord is the lane engine coordinator events are emitted on (mapped
// to the tracer's last ring); scheduler lanes are worker ids >= 0.
const LaneCoord = -1

// Event is one decoded trace record.
type Event struct {
	// TS is the event time, a reading of the trace clock (Now: monotonic
	// nanoseconds, comparable across lanes): the emitting lane's last phase
	// reading, which the events of one instant share — a group's
	// aux-produced and group-start, a run's lane-cpu-* events. Equal stamps
	// on one ring are in emission order (Snapshot and Poll both keep it).
	TS int64
	// Lane is the lane the event was emitted on: the worker id for
	// scheduler events, LaneCoord for engine coordinator events, and a
	// shard hint (the group index) for group-execution events.
	Lane int16
	// Kind is what happened.
	Kind EventKind
	// Group is the speculation group the event concerns, or -1.
	Group int32
	// Arg is the kind-specific argument (see the kind constants).
	Arg int64
}

// seqBase offsets a slot's sequence word from its ring ticket: 0 = never
// written, ticket+seqBase = the slot was last published with that ticket.
const seqBase uint64 = 1

// tslot is one ring slot. Every word is atomic so concurrent Emit and
// Snapshot are race-free. A writer claims its ticket from the ring's
// counter before it touches the slot, stores the payload and publishes the
// sequence word last; there is no write-in-progress mark. Records of one
// slot are written strictly lap after lap (EmitAt waits for the record it
// overwrites to be published), so a sequence word always names the last
// writer to touch the slot. A reader (tring.read) therefore needs three
// steps: the sequence word names the ticket it wants (that record is
// complete), it copies the payload, and the ring's counter is still at
// most ticket+capacity — Go atomics are sequentially consistent, so no
// overwriter had claimed the slot, let alone stored into it, before the
// copy ended.
type tslot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	meta atomic.Uint64
	arg  atomic.Int64
}

// tring is one lane's bounded ring. pos is the ticket counter; slot
// ticket%len holds the event, overwriting the record len tickets older.
type tring struct {
	pos   atomic.Uint64
	_     [7]uint64 // keep neighbouring rings' hot counters off this line
	slots []tslot
}

// DefaultLaneCap is the per-lane ring capacity used when NewTracer is
// given a non-positive capacity: 4096 events × 32 bytes = 128 KiB/lane.
const DefaultLaneCap = 4096

// Tracer is a lock-free, bounded-memory speculation event log: one ring
// per lane, written with Emit/EmitAt and read with Snapshot and Poll. A nil
// *Tracer is a valid no-op sink — every method checks the receiver — which
// is the disabled fast path the engine relies on.
type Tracer struct {
	rings []tring
	// mask is len(rings)-1: the ring count is a power of two, so a lane
	// picks its ring with an and, not a division.
	mask int
}

// epoch is the instant the trace clock counts from: one per process, so a
// reading is a valid stamp for any tracer and the engine's lanes, the pool's
// workers and the tracers all share one clock.
var epoch = time.Now()

// Now reads the trace clock: monotonic nanoseconds since the process's
// trace epoch. Every Event.TS is a reading of it.
func Now() int64 { return int64(time.Since(epoch)) }

// NewTracer returns a tracer with the given number of lanes and per-lane
// capacity, each rounded up to the next power of two (non-positive lanes
// mean 1, a non-positive capacity DefaultLaneCap).
func NewTracer(lanes, perLaneCap int) *Tracer {
	if perLaneCap <= 0 {
		perLaneCap = DefaultLaneCap
	}
	lanes = pow2(lanes)
	t := &Tracer{rings: make([]tring, lanes), mask: lanes - 1}
	for i := range t.rings {
		t.rings[i].slots = make([]tslot, pow2(perLaneCap))
	}
	return t
}

// pow2 returns the smallest power of two at least n (1 for n < 1).
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// packMeta folds kind, lane and group into one word: kind in the top
// byte, the lane's 16 bits below it, the group's 32 bits at the bottom.
func packMeta(kind EventKind, lane int16, group int32) uint64 {
	return uint64(kind)<<56 | uint64(uint16(lane))<<40 | uint64(uint32(group))
}

// unpackMeta is the inverse of packMeta.
func unpackMeta(m uint64) (kind EventKind, lane int16, group int32) {
	return EventKind(m >> 56), int16(uint16(m >> 40)), int32(uint32(m))
}

// Emit is EmitAt stamped with a fresh reading of the trace clock, for
// callers that hold none. On a nil tracer both are no-ops, which is the
// disabled fast path.
func (t *Tracer) Emit(lane int, kind EventKind, group int32, arg int64) {
	if t != nil {
		t.EmitAt(lane, Now(), kind, group, arg)
	}
}

// EmitAt appends one event stamped ts (the caller's reading of Now) to the
// lane's ring, overwriting the oldest record when the ring is full: one
// ticket claim and four stores, the sequence word last. It takes no locks
// and waits for nothing but a writer one whole lap behind it. The lane is
// reduced modulo the lane count (negative lanes, like LaneCoord, map to the
// last ring) but recorded verbatim in the event.
func (t *Tracer) EmitAt(lane int, ts int64, kind EventKind, group int32, arg int64) {
	if t == nil {
		return
	}
	r := &t.rings[lane&t.mask]
	ticket, capacity := r.pos.Add(1)-1, uint64(len(r.slots))
	s := &r.slots[ticket&(capacity-1)]
	// Records of one slot are written strictly lap after lap: the one this
	// overwrites must be published first. Only a writer descheduled
	// mid-record while its ring went all the way round makes this wait.
	if prev := ticket + seqBase - capacity; ticket >= capacity {
		for s.seq.Load() != prev {
			runtime.Gosched()
		}
	}
	s.ts.Store(ts)
	s.meta.Store(packMeta(kind, int16(lane), group))
	s.arg.Store(arg)
	s.seq.Store(ticket + seqBase)
}

// read copies the event ring ticket holds, if it is still there. seq is the
// slot's sequence word as read before the copy: ticket+seqBase when the
// event was published and not yet overwritten, smaller while its writer is
// between claim and publish, larger once a later lap published over it. ok
// is the outcome of the reader's three steps (tslot).
func (r *tring) read(ticket uint64) (ev Event, seq uint64, ok bool) {
	s := &r.slots[ticket&uint64(len(r.slots)-1)]
	if seq = s.seq.Load(); seq != ticket+seqBase {
		return ev, seq, false
	}
	ts, meta, arg := s.ts.Load(), s.meta.Load(), s.arg.Load()
	kind, lane, group := unpackMeta(meta)
	return Event{TS: ts, Lane: lane, Kind: kind, Group: group, Arg: arg}, seq, r.pos.Load() <= ticket+uint64(len(r.slots))
}

// Snapshot returns the currently-readable events of every lane merged into
// time order; events with equal stamps stay in ring order and, within a
// ring, in emission (ticket) order — shared phase readings make ties the
// normal case, and the folds rely on a group's aux-produced preceding the
// group-start it shares a reading with. It is safe to call concurrently
// with Emit: slots unpublished or overwritten mid-read are detected
// (tring.read) and skipped. A nil tracer yields nil.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	var evs []Event
	for ri := range t.rings {
		r := &t.rings[ri]
		pos := r.pos.Load()
		lo := uint64(0)
		if capacity := uint64(len(r.slots)); pos > capacity {
			lo = pos - capacity
		}
		for ticket := lo; ticket < pos; ticket++ {
			if ev, _, ok := r.read(ticket); ok {
				evs = append(evs, ev)
			}
		}
	}
	// evs is in (ring, ticket) order, which a stable sort by stamp keeps; a
	// log with one busy ring is usually in stamp order already.
	byStamp := func(a, b Event) int { return cmp.Compare(a.TS, b.TS) }
	if !slices.IsSortedFunc(evs, byStamp) {
		slices.SortStableFunc(evs, byStamp)
	}
	return evs
}

// Emitted returns the number of events ever emitted across all lanes.
func (t *Tracer) Emitted() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.rings {
		n += int64(t.rings[i].pos.Load())
	}
	return n
}

// Cursor tracks a Poll consumer's read position, one ticket per lane
// ring. The zero Cursor reads each ring from its oldest surviving event.
// A Cursor belongs to one tracer and one consumer; it is not safe for
// concurrent use.
type Cursor struct {
	next []uint64
}

// Poll appends the events published since the cursor's last position to
// buf (which may be nil) and advances the cursor, returning the extended
// buffer and the number of events lost to ring wrap-around since the
// previous poll. Unlike Snapshot, Poll is incremental and in order per
// ring: each ring is read oldest-first, and a slot still being written
// stops that ring's scan until the next poll, so no published event is
// skipped or delivered twice. Events from different rings are appended
// ring by ring, not merged by time — sort the batch if folding requires
// it. A nil tracer appends nothing.
func (t *Tracer) Poll(c *Cursor, buf []Event) ([]Event, int64) {
	if t == nil {
		return buf, 0
	}
	if len(c.next) < len(t.rings) {
		c.next = append(c.next, make([]uint64, len(t.rings)-len(c.next))...)
	}
	var dropped int64
	for ri := range t.rings {
		r := &t.rings[ri]
		pos := r.pos.Load()
		capacity := uint64(len(r.slots))
		ticket := c.next[ri]
		if pos > capacity && ticket < pos-capacity {
			// The ring lapped us while we were away: everything below
			// pos-capacity is gone.
			dropped += int64(pos - capacity - ticket)
			ticket = pos - capacity
		}
		for ; ticket < pos; ticket++ {
			ev, seq, ok := r.read(ticket)
			if seq < ticket+seqBase {
				// Claimed but not yet published (mid-write): resume
				// here on the next poll to keep in-order delivery.
				break
			}
			if ok {
				buf = append(buf, ev)
			} else {
				dropped++ // overwritten while we were behind, or mid-copy
			}
		}
		c.next[ri] = ticket
	}
	return buf, dropped
}

// Dropped returns how many events have been evicted by ring wrap-around —
// the price of bounded memory. Tests that assert on complete logs check
// this is zero.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.rings {
		pos := int64(t.rings[i].pos.Load())
		if c := int64(len(t.rings[i].slots)); pos > c {
			n += pos - c
		}
	}
	return n
}

// auxWindowBits is the width of the window field in an EvAuxProduced
// argument; the duration takes the 39 bits above it (about nine minutes).
const auxWindowBits = 24

// AuxArg packs an EvAuxProduced event's window length and the auxiliary
// code's duration into one trace argument: durNS<<24 | window, each
// saturating at its field's width.
func AuxArg(window int, durNS int64) int64 {
	return min(durNS, 1<<(63-auxWindowBits)-1)<<auxWindowBits | int64(min(window, 1<<auxWindowBits-1))
}

// SplitAuxArg inverts AuxArg.
func SplitAuxArg(arg int64) (window int, durNS int64) {
	return int(arg & (1<<auxWindowBits - 1)), arg >> auxWindowBits
}

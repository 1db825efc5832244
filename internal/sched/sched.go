// Package sched is the engine's controlled scheduler: it makes every
// nondeterministic decision point in internal/core injectable, so
// adversarial interleavings of aux production, validation, redo, abort,
// squash, fallback and reservation rounds can be explored systematically
// (dejafu-style) instead of waiting for the OS to produce them under -race.
// The worker pool is not a participant: which worker runs a lane's task
// decides nothing the engine can observe, so it is no part of a schedule.
//
// The model is cooperative serialization. Two kinds of participant — a
// run's coordinator, and its group or chunk lanes — announce themselves at
// yield points. A Controller admits one participant at a time: the admitted
// lane runs to its next yield point, parks, and the controller picks the
// next runnable lane. Because cross-lane-visible writes happen before the
// writer's next yield and reads happen after the reader's admission, the
// gate's mutex orders them, and a run's behaviour at yield granularity is a
// pure function of the admission sequence. That sequence is the schedule:
// recording it yields a trace (see Trace) and replaying the trace
// reproduces the run decision-for-decision.
//
// Three controllers are provided:
//
//   - Random: a seeded random walk over the serialized schedule space —
//     each admission picks uniformly among the parked lanes.
//   - PCT: priority-based exploration in the style of probabilistic
//     concurrency testing — lanes get seeded priorities, the
//     highest-priority parked lane always runs, and a configurable number
//     of priority-change points demote the front-runner at seeded steps.
//   - Replay: drives execution from a recorded decision trace, admitting
//     each yield in exactly the recorded order, so any failing exploration
//     run becomes a permanent deterministic regression test.
//
// A nil Controller disables everything: the engine's yield points cost a
// single branch (the same discipline as core.Options.Obs), so shipping
// code pays nothing for being explorable.
package sched

import (
	"sync"
	"time"
)

// Point identifies a yield or decision point in the engine.
type Point uint8

// The instrumented decision points. Yield points serialize control flow;
// Choose points additionally pick one of n alternatives.
const (
	// PointGroupStart is a speculative group lane beginning execution.
	PointGroupStart Point = iota
	// PointGroupStep is a group lane about to process its next input
	// (and then inspect the abort flag).
	PointGroupStep
	// PointGroupFinish is a group lane publishing its execution results.
	PointGroupFinish
	// PointAux is a speculative group lane (SchedLane+1+j) at the head of
	// its task, about to inspect the abort flag and then produce the
	// group's speculative start state — or skip it, if already squashed.
	PointAux
	// PointValidate is the resolver — the group lane whose task holds the
	// run's resolver role, having just finished its group — about to
	// validate one boundary.
	PointValidate
	// PointRedo is the resolver about to re-execute a group suffix.
	PointRedo
	// PointSquash is the resolver having just squashed a group range
	// (the abort flags are already set when this yield is reached).
	PointSquash
	// PointFallback is the coordinator entering the sequential fallback.
	PointFallback
	// PointResume is a lane re-entering the schedule after a real
	// blocking operation (Controller.Unblock).
	PointResume
	// PointBreakerAllow is the coordinator about to ask the circuit
	// breaker for speculation admission.
	PointBreakerAllow
	// PointBreakerRecord is the coordinator about to record a run
	// outcome with the circuit breaker.
	PointBreakerRecord
	// PointTimeoutCheck is a Choose point (n=2) a deadlined group lane
	// consults each step: 1 forces the deadline expired, 0 defers to the
	// real clock. Controllers return 0 unless configured to force
	// timeouts (WithForcedTimeouts) or replaying a trace that did.
	PointTimeoutCheck
	// PointReserve is the reservations coordinator, on its own lane, about
	// to evaluate one pending input's footprint and write-min it into the
	// round's reservation table (core.ProtocolReservations).
	PointReserve
	// PointReserveCheck is a compute chunk's lane (SchedLane+1+c) about to
	// run the compute of one of the round's winners — an input that held
	// every slot it reserved — from its snapshot of the committed state.
	PointReserveCheck
	// PointCommit is the reservations coordinator about to merge a
	// round's winners into the committed state in input order.
	PointCommit

	numPoints // sentinel, keep last
)

// pointNames are the stable wire names used by the trace format.
var pointNames = [numPoints]string{
	PointGroupStart:    "group-start",
	PointGroupStep:     "group-step",
	PointGroupFinish:   "group-finish",
	PointAux:           "aux",
	PointValidate:      "validate",
	PointRedo:          "redo",
	PointSquash:        "squash",
	PointFallback:      "fallback",
	PointResume:        "resume",
	PointBreakerAllow:  "breaker-allow",
	PointBreakerRecord: "breaker-record",
	PointTimeoutCheck:  "timeout-check",
	PointReserve:       "reserve",
	PointReserveCheck:  "reserve-check",
	PointCommit:        "commit",
}

// String returns the point's stable wire name.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "unknown"
}

// ParsePoint inverts String.
func ParsePoint(s string) (Point, bool) {
	for i, n := range pointNames {
		if n == s {
			return Point(i), true
		}
	}
	return 0, false
}

// Controller makes the engine's nondeterministic decisions. All methods
// are safe for concurrent use; Yield and Choose may block the caller to
// force an interleaving. Lane identifiers partition the participants: a
// run's coordinator uses the run's lane base, and the task that claimed
// group j — or chunk j of a reservations wave — uses base+1+j.
type Controller interface {
	// Yield parks the calling lane until the controller schedules it.
	Yield(p Point, lane int)
	// Choose parks like Yield and then picks one of n alternatives
	// (0 <= result < n). n must be >= 1.
	Choose(p Point, lane, n int) int
	// Block announces that the lane is about to block on a real
	// synchronization (channel receive, WaitGroup) and must not be
	// waited for; Unblock re-enters the schedule afterwards.
	Block(lane int)
	// Unblock re-admits a lane after Block. It may block the caller.
	Unblock(lane int)
	// Done retires the lane from the schedule. Done is idempotent; a
	// retired lane may re-register by yielding again.
	Done(lane int)
}

// waiter is one parked lane.
type waiter struct {
	kind  Kind
	point Point
	lane  int
	n     int
	ch    chan int // admission delivers the Choose value (0 for yields)
}

// key is the identity replay matches admissions by.
func (w *waiter) key() entryKey {
	return entryKey{kind: w.kind, point: w.point, lane: w.lane}
}

type entryKey struct {
	kind  Kind
	point Point
	lane  int
}

// picker selects the next waiter to admit: an index into g.waiting, or -1
// to hold the schedule until another arrival (Replay waiting for the next
// recorded lane). Called with g.mu held.
type picker interface {
	pick(g *Gate) int
	// choice resolves a Choose admission's value. Called with g.mu held.
	choice(g *Gate, w *waiter) int
	name() string
}

// Gate is the serializing scheduler core shared by the Random, PCT and
// Replay controllers: at most one participant is admitted ("active") at a
// time, everyone else parks, and the picker chooses who runs next.
type Gate struct {
	mu       sync.Mutex
	p        picker
	active   int          // admitted participants not yet back at the gate
	lanes    map[int]bool // lane -> currently active
	expected map[int]bool // announced lanes not yet seen at the gate
	waiting  []*waiter
	seq      int // admissions so far

	record  bool
	trace   *Trace
	stall   time.Duration
	stalled int // force-admissions after a stall timeout

	seed uint64
	prng *splitmix

	// forceTimeoutRate is the probability a PointTimeoutCheck choice
	// returns 1 (deadline forced expired) under Random/PCT.
	forceTimeoutRate float64
}

// Option configures a controller.
type Option func(*Gate)

// WithRecording makes the controller record every admission into a Trace
// retrievable via TraceCopy.
func WithRecording() Option {
	return func(g *Gate) { g.record = true }
}

// WithStallTimeout bounds how long a parked lane waits before force-
// admitting itself (counted in Stalls). The default is 2s; raise it for
// heavily loaded CI machines, lower it for fast divergence detection.
func WithStallTimeout(d time.Duration) Option {
	return func(g *Gate) {
		if d > 0 {
			g.stall = d
		}
	}
}

// WithForcedTimeouts makes Random and PCT controllers answer the
// PointTimeoutCheck choice with "expired" at the given per-step rate,
// so group-deadline interleavings are explorable without real clocks.
func WithForcedTimeouts(rate float64) Option {
	return func(g *Gate) { g.forceTimeoutRate = rate }
}

// newGate builds the shared core.
func newGate(p picker, seed uint64, opts []Option) *Gate {
	g := &Gate{
		p:        p,
		lanes:    make(map[int]bool),
		expected: make(map[int]bool),
		stall:    2 * time.Second,
		seed:     seed,
		prng:     newSplitmix(seed),
	}
	for _, o := range opts {
		o(g)
	}
	if g.record {
		g.trace = &Trace{Seed: seed, Controller: p.name()}
	}
	return g
}

// NewRandom returns a seeded random-walk controller: every admission
// picks uniformly among the parked lanes.
func NewRandom(seed uint64, opts ...Option) *Gate {
	return newGate(&randomPicker{}, seed, opts)
}

// NewPCT returns a PCT-style priority controller: lanes receive seeded
// priorities on first sight, the highest-priority parked lane is always
// admitted, and depth-1 priority-change points (at seeded admission
// indices below horizon) demote the current front-runner. depth < 2
// degenerates to strict priority scheduling.
func NewPCT(seed uint64, depth, horizon int, opts ...Option) *Gate {
	if horizon < 1 {
		horizon = 1024
	}
	p := &pctPicker{prio: make(map[int]int64), change: make(map[int]bool)}
	ps := newSplitmix(seed ^ 0x9C700C7)
	for i := 1; i < depth; i++ {
		p.change[int(ps.next()%uint64(horizon))] = true
	}
	return newGate(p, seed, opts)
}

// TraceCopy returns a copy of the recording so far (nil when the
// controller was built without WithRecording).
func (g *Gate) TraceCopy() *Trace {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.trace == nil {
		return nil
	}
	t := &Trace{Seed: g.trace.Seed, Controller: g.trace.Controller, Note: g.trace.Note}
	t.Entries = append([]Entry(nil), g.trace.Entries...)
	return t
}

// Stalls reports how many parked lanes force-admitted themselves after
// the stall timeout — nonzero means the schedule lost control somewhere
// (a blocking operation not wrapped in Block, or a divergent replay).
func (g *Gate) Stalls() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stalled
}

// Expect announces that lane is about to join the schedule (its goroutine
// has been or is being spawned): dispatch holds until every expected lane
// reaches the gate, so admission decisions always see the complete set of
// runnable lanes and the schedule is a pure function of the seed rather
// than of goroutine start-up timing. An expected lane that never arrives
// is reaped by Done (the engine's panic paths) or, as a last resort, by
// the parked lanes' stall timeout.
func (g *Gate) Expect(lane int) {
	g.mu.Lock()
	if _, ok := g.lanes[lane]; !ok {
		g.expected[lane] = true
	}
	g.mu.Unlock()
}

// Yield implements Controller.
func (g *Gate) Yield(p Point, lane int) {
	g.gatecall(&waiter{kind: KindYield, point: p, lane: lane, ch: make(chan int, 1)})
}

// Choose implements Controller.
func (g *Gate) Choose(p Point, lane, n int) int {
	if n <= 1 {
		// A one-armed choice is a plain yield with a forced outcome.
		g.Yield(p, lane)
		return 0
	}
	return g.gatecall(&waiter{kind: KindChoose, point: p, lane: lane, n: n, ch: make(chan int, 1)})
}

// Block implements Controller.
func (g *Gate) Block(lane int) {
	g.mu.Lock()
	if g.lanes[lane] {
		g.lanes[lane] = false
		g.active--
	}
	g.dispatchLocked()
	g.mu.Unlock()
}

// Unblock implements Controller.
func (g *Gate) Unblock(lane int) { g.Yield(PointResume, lane) }

// Done implements Controller.
func (g *Gate) Done(lane int) {
	g.mu.Lock()
	delete(g.expected, lane)
	if active, ok := g.lanes[lane]; ok {
		if active {
			g.active--
		}
		delete(g.lanes, lane)
	}
	g.dispatchLocked()
	g.mu.Unlock()
}

// gatecall parks the waiter, waits for admission (or the stall timeout),
// and returns the admission value.
func (g *Gate) gatecall(w *waiter) int {
	g.mu.Lock()
	delete(g.expected, w.lane)
	if active, ok := g.lanes[w.lane]; ok && active {
		// The lane held the token; parking releases it.
		g.lanes[w.lane] = false
		g.active--
	} else if !ok {
		g.lanes[w.lane] = false
	}
	if g.admitFreely(w) {
		// Unconstrained under replay: this (kind, point, lane) has no
		// remaining trace entries, so it runs outside the forced order.
		v := g.admitLocked(w)
		g.mu.Unlock()
		return v
	}
	g.waiting = append(g.waiting, w)
	g.dispatchLocked()
	g.mu.Unlock()

	timer := time.NewTimer(g.stall)
	defer timer.Stop()
	select {
	case v := <-w.ch:
		return v
	case <-timer.C:
	}

	// Stall: force-admit ourselves so the run cannot hang. The picker is
	// told (via onStall) so a replay can resynchronize.
	g.mu.Lock()
	for i, q := range g.waiting {
		if q == w {
			g.waiting = append(g.waiting[:i], g.waiting[i+1:]...)
			g.stalled++
			if s, ok := g.p.(stallAware); ok {
				s.onStall(g, w)
			}
			v := g.admitLocked(w)
			g.dispatchLocked()
			g.mu.Unlock()
			return v
		}
	}
	g.mu.Unlock()
	// Admitted concurrently with the timeout: the value is in the channel.
	return <-w.ch
}

// stallAware lets a picker react to a forced admission (Replay skips the
// entry it was stuck on).
type stallAware interface {
	onStall(g *Gate, w *waiter)
}

// freeAdmitter lets a picker bypass the queue for waiters it has no
// ordering constraint for (Replay with a minimized trace).
type freeAdmitter interface {
	admitFreely(g *Gate, w *waiter) bool
}

func (g *Gate) admitFreely(w *waiter) bool {
	if f, ok := g.p.(freeAdmitter); ok {
		return f.admitFreely(g, w)
	}
	return false
}

// admitLocked records and activates one admission and returns its value;
// dispatchLocked additionally delivers it on the waiter's channel.
func (g *Gate) admitLocked(w *waiter) int {
	v := 0
	if w.kind == KindChoose {
		v = g.p.choice(g, w)
		if v < 0 || v >= w.n {
			v = 0
		}
	}
	if g.trace != nil {
		g.trace.Entries = append(g.trace.Entries, Entry{
			Kind: w.kind, Point: w.point, Lane: w.lane, N: w.n, Choice: v,
		})
	}
	g.seq++
	g.lanes[w.lane] = true
	g.active++
	return v
}

// dispatchLocked admits parked lanes while no participant is active and
// no expected lane has yet to reach the gate.
func (g *Gate) dispatchLocked() {
	for g.active == 0 && len(g.expected) == 0 && len(g.waiting) > 0 {
		i := g.p.pick(g)
		if i < 0 || i >= len(g.waiting) {
			return // hold: the picker is waiting for a specific arrival
		}
		w := g.waiting[i]
		g.waiting = append(g.waiting[:i], g.waiting[i+1:]...)
		w.ch <- g.admitLocked(w)
	}
}

// choiceValue is the shared Choose policy for the generative controllers:
// timeout checks are biased by forceTimeoutRate, everything else is
// uniform.
func (g *Gate) choiceValue(w *waiter) int {
	if w.point == PointTimeoutCheck {
		if g.forceTimeoutRate > 0 && g.prng.float() < g.forceTimeoutRate {
			return 1
		}
		return 0
	}
	return int(g.prng.next() % uint64(w.n))
}

// randomPicker admits a uniformly random parked lane. The pick is keyed
// by lane identity, not queue position, so it depends only on the set of
// parked lanes — never on the order they happened to arrive in (which is
// OS scheduling, not schedule).
type randomPicker struct{}

func (randomPicker) name() string { return "random" }

func (randomPicker) pick(g *Gate) int {
	r := g.prng.next()
	best, bestKey := -1, uint64(0)
	for i, w := range g.waiting {
		k := mix64(r, uint64(int64(w.lane))^uint64(w.point)<<48)
		if best < 0 || k > bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

func (randomPicker) choice(g *Gate, w *waiter) int { return g.choiceValue(w) }

// pctPicker admits the highest-priority parked lane, demoting the current
// front-runner at seeded change points.
type pctPicker struct {
	prio   map[int]int64
	change map[int]bool
	demote int64 // next demotion priority, strictly decreasing
}

func (*pctPicker) name() string { return "pct" }

func (p *pctPicker) priority(g *Gate, lane int) int64 {
	if v, ok := p.prio[lane]; ok {
		return v
	}
	// First sight: a seeded, lane-keyed priority. Positive so demotions
	// (negative) always rank below fresh lanes.
	v := int64(mix64(g.seed, uint64(lane)+0x51) >> 1)
	p.prio[lane] = v
	return v
}

func (p *pctPicker) pick(g *Gate) int {
	best, bestPrio := -1, int64(0)
	for i, w := range g.waiting {
		if pr := p.priority(g, w.lane); best < 0 || pr > bestPrio {
			best, bestPrio = i, pr
		}
	}
	if p.change[g.seq] && best >= 0 {
		// Priority-change point: demote the would-be winner and repick.
		p.demote--
		p.prio[g.waiting[best].lane] = p.demote
		best, bestPrio = -1, 0
		for i, w := range g.waiting {
			if pr := p.priority(g, w.lane); best < 0 || pr > bestPrio {
				best, bestPrio = i, pr
			}
		}
	}
	return best
}

func (p *pctPicker) choice(g *Gate, w *waiter) int { return g.choiceValue(w) }

// splitmix is the controllers' internal PRNG (decisions must not consume
// the engine's rng streams, which belong to the program under test).
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is a stateless splitmix-style hash of two words.
func mix64(a, b uint64) uint64 {
	x := a ^ b*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

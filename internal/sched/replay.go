package sched

// Replay drives execution from a recorded decision trace: admissions are
// granted in exactly the recorded order, and Choose points return the
// recorded outcomes, so a run whose behaviour is a function of its
// admission sequence (which the gate's serialization guarantees at yield
// granularity) reproduces the recording decision-for-decision.
//
// Robustness over strictness: a replay must never hang even when the code
// under test has drifted from the recording. Three escape hatches apply,
// each observable so tests can assert a replay was exact:
//
//   - Unconstrained admission: a lane whose (kind, point, lane) has no
//     remaining entries in the trace is admitted immediately, outside the
//     forced order. This is what makes trace minimization meaningful —
//     deleting entries relaxes ordering constraints instead of wedging
//     the run — and is not counted as a divergence.
//   - Stall resynchronization: when the next recorded entry's lane never
//     arrives (the execution diverged), parked lanes force-admit after
//     the stall timeout and the replay skips the entry it was stuck on.
//     Counted in Divergences.
//   - Fallback decisions: a Choose admitted out of order (or with a
//     different domain size) returns a deterministic seeded value rather
//     than the recorded one. Counted in Divergences. The value is keyed by
//     the lane, the point and how many times that lane has chosen there,
//     never by the order in which lanes happened to arrive, so a
//     minimized trace whose unconstrained choices decide the outcome
//     replays the same way every time.

// Replay is a Controller that forces a recorded schedule. Build with
// NewReplay; retrieve fidelity counters from Divergences and Remaining.
type Replay struct {
	*Gate
}

// replayPicker admits waiters in recorded order.
type replayPicker struct {
	entries   []Entry
	pos       int
	remaining map[entryKey]int
	diverged  int
	// inOrder is set by pick (or onStall) when it consumed the choice
	// entry of the waiter it admits; that admission's choice reads and
	// clears it.
	inOrder bool
	// chosen counts each (point, lane)'s choices so far: with seed it keys
	// a fallback value to the lane's own history.
	chosen map[entryKey]int
	seed   uint64
}

// NewReplay returns a controller that replays t. Options (recording, the
// stall timeout) apply as for the generative controllers; recording a
// replay and comparing the re-recorded trace to the original is the
// standard way to assert a replay was exact.
func NewReplay(t *Trace, opts ...Option) *Replay {
	p := &replayPicker{
		entries:   append([]Entry(nil), t.Entries...),
		remaining: make(map[entryKey]int),
		chosen:    make(map[entryKey]int),
		seed:      t.Seed ^ 0x5EED,
	}
	for _, e := range p.entries {
		p.remaining[entryKey{kind: e.Kind, point: e.Point, lane: e.Lane}]++
	}
	g := newGate(p, t.Seed, opts)
	if g.trace != nil {
		g.trace.Controller = "replay"
	}
	return &Replay{Gate: g}
}

// Divergences reports how many admissions departed from the recorded
// schedule (stall resynchronizations plus fallback decisions). Zero means
// the replay was exact.
func (r *Replay) Divergences() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.p.(*replayPicker)
	return p.diverged + r.stalled
}

// Remaining reports how many recorded entries were never consumed — zero
// when the replayed execution exercised the whole schedule.
func (r *Replay) Remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.p.(*replayPicker)
	return len(p.entries) - p.pos
}

func (*replayPicker) name() string { return "replay" }

// pick admits the waiter matching the next recorded entry, or holds until
// it arrives.
func (p *replayPicker) pick(g *Gate) int {
	if p.pos >= len(p.entries) {
		// Past the recording: admit in arrival order.
		if len(g.waiting) > 0 {
			return 0
		}
		return -1
	}
	e := p.entries[p.pos]
	for i, w := range g.waiting {
		if w.kind == e.Kind && w.point == e.Point && w.lane == e.Lane {
			p.consume()
			p.inOrder = e.Kind == KindChoose
			return i
		}
	}
	return -1 // hold for the recorded lane's arrival
}

// consume advances past the current entry.
func (p *replayPicker) consume() {
	e := p.entries[p.pos]
	p.remaining[entryKey{kind: e.Kind, point: e.Point, lane: e.Lane}]--
	p.pos++
}

// choice returns the recorded outcome when pick or onStall has just
// consumed this admission's entry; otherwise a deterministic fallback. An unconstrained
// admission (no remaining entries for the key — a minimized trace) takes
// the fallback without counting as a divergence.
func (p *replayPicker) choice(_ *Gate, w *waiter) int {
	k := w.key()
	nth := p.chosen[k]
	p.chosen[k]++
	if p.inOrder {
		p.inOrder = false
		if e := p.entries[p.pos-1]; e.N == w.n {
			return e.Choice
		}
		p.diverged++
	} else if p.remaining[k] > 0 {
		p.diverged++ // out-of-order admission of a constrained choice
	}
	return int(mix64(p.seed, uint64(w.point)<<56^uint64(int64(w.lane))<<24^uint64(nth)) % uint64(w.n))
}

// admitFreely grants immediate admission to waiters the trace has no
// remaining constraint for.
func (p *replayPicker) admitFreely(_ *Gate, w *waiter) bool {
	return p.remaining[w.key()] == 0
}

// onStall resynchronizes after a forced admission: skip the entry the
// schedule was stuck on (the diverged execution will never produce it in
// order) and consume one matching entry for the force-admitted waiter so
// its remaining-count stays aligned. When the entry it was stuck on is
// the waiter's own (another lane held the token past the timeout), that
// entry is the match, and a Choose returns its recorded value.
func (p *replayPicker) onStall(_ *Gate, w *waiter) {
	if p.pos < len(p.entries) {
		e := p.entries[p.pos]
		p.consume()
		if e.Kind == w.kind && e.Point == w.point && e.Lane == w.lane {
			p.inOrder = e.Kind == KindChoose
			return
		}
	}
	if k := w.key(); p.remaining[k] > 0 {
		p.remaining[k]--
	}
}

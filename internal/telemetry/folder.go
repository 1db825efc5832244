// Incremental span folding: the streaming counterpart of BuildSpans.
//
// BuildSpans refolds a whole tracer snapshot on every call — ~2.5 MB and
// 27k allocations per call on a loaded server (BenchmarkBuildSpans), paid by
// every /spans scrape. SpanFolder instead consumes the tracer's rings
// incrementally through obs.Tracer.Poll and maintains the per-group span
// trees in place: a warm Doc() call folds only the events emitted since
// the previous call, and a call with nothing new returns a cached
// document. Group accumulators are recycled through a sync.Pool and
// finished generations retire into a bounded ring of completed trees, so
// a folder's memory stays bounded no matter how long the engine runs —
// the same flight-recorder discipline as the tracer itself.
package telemetry

import (
	"sort"
	"sync"

	"repro/internal/obs"
)

// Folder bounds: a live folder keeps at most maxLiveGroups in-flight
// accumulators (the oldest is force-finalized past that) and retains the
// last completedRingCap finalized generation trees. BuildSpans folds with
// neither bound.
const (
	maxLiveGroups    = 4096
	completedRingCap = 256
)

// mark is one recorded instant of a group's lifecycle.
type mark struct {
	ts, arg int64
	ok      bool
}

// set records the event, overwriting an earlier mark (BuildSpans
// semantics: on time-sorted input the latest record wins).
func (m *mark) set(e *obs.Event) {
	m.ts, m.arg, m.ok = e.TS, e.Arg, true
}

// spanAcc accumulates one group generation's events until it is folded
// into a Span tree. Accumulators are recycled through spanAccPool; a
// whole-snapshot fold holds one per group id at once, so the small fields
// sit together to keep it in the allocator's 256-byte size class.
type spanAcc struct {
	group              int32
	reserves           int32
	execStart, execEnd mark
	aux                mark
	valFirst, valEnd   mark
	squash, fallback   mark
	redos              []obs.Event
	matched, aborted   bool
	seen, conventional bool
	cause              Cause
	conflicts, commits int32
	cpuCommitted       int64
	cpuWasted          int64
	firstTS, lastTS    int64
	// span caches the generation's folded tree; nil means dirty. Trees
	// handed out in a SpanDoc are never mutated afterwards, so cached
	// pointers are safe to share across documents.
	span *Span
}

var spanAccPool = sync.Pool{New: func() any { return new(spanAcc) }}

// reset clears the accumulator for reuse, keeping the redo slice's
// backing array.
func (a *spanAcc) reset(group int32) {
	redos := a.redos[:0]
	*a = spanAcc{group: group, redos: redos}
}

// SpanFolder folds tracer events into per-group span trees incrementally.
// All methods are safe for concurrent use; the folder serializes on one
// mutex and never blocks Tracer.Emit (Poll reads the lock-free rings).
type SpanFolder struct {
	mu  sync.Mutex
	tr  *obs.Tracer
	cur obs.Cursor
	buf []obs.Event

	// keep bounds the retired trees retained (and turns the live bound
	// on); zero keeps everything.
	keep int

	live      map[int32]*spanAcc
	completed []*Span // retired trees; circular from compHead once keep are held
	compHead  int

	events      int
	schedEvents int
	dropped     int64

	// cached is the last assembled document, reused verbatim (modulo a
	// shallow copy) while no new event arrives; docDirty invalidates it.
	cached   *SpanDoc
	docDirty bool
}

// NewSpanFolder returns a live folder over the tracer (which may be nil:
// the folder then only folds what FoldBatch is fed).
func NewSpanFolder(tr *obs.Tracer) *SpanFolder {
	return &SpanFolder{
		tr:        tr,
		keep:      completedRingCap,
		live:      map[int32]*spanAcc{},
		completed: make([]*Span, 0, completedRingCap),
		docDirty:  true,
	}
}

// Poll drains the tracer's newly published events into the folder. It is
// cheap when nothing happened and O(new events) otherwise.
func (f *SpanFolder) Poll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pollLocked()
}

// Dropped returns the events the folder knows it lost to ring
// wrap-around between polls.
func (f *SpanFolder) Dropped() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

func (f *SpanFolder) pollLocked() {
	if f.tr == nil {
		return
	}
	f.buf = f.buf[:0]
	var d int64
	f.buf, d = f.tr.Poll(&f.cur, f.buf)
	f.dropped += d
	if len(f.buf) == 0 {
		return
	}
	f.foldBatchLocked(f.buf)
}

// FoldBatch folds a batch of events directly (no tracer involved), used
// by BuildSpans and tests. The batch is sorted by timestamp in place.
func (f *SpanFolder) FoldBatch(events []obs.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.foldBatchLocked(events)
}

func (f *SpanFolder) foldBatchLocked(events []obs.Event) {
	// Poll delivers ring by ring; folding wants (stable) time order, the
	// order BuildSpans always established, so the within-batch fold is
	// insensitive to lane interleaving.
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	for i := range events {
		f.fold(&events[i])
	}
}

// fold consumes one event: the one place an engine event kind becomes
// part of a group's lifecycle (scheduler kinds are paired by LaneTasks).
func (f *SpanFolder) fold(e *obs.Event) {
	f.docDirty = true
	if schedKind(e.Kind) {
		f.schedEvents++
		return
	}
	f.events++
	if e.Group < 0 {
		// Run-level (EvBreakerDenied): counted, attached to no group.
		return
	}

	switch e.Kind {
	case obs.EvLaneCPUCommitted, obs.EvLaneCPUWasted, obs.EvConventional:
		// Attribution summaries — lane CPU, and a streak's commit of a
		// conventional group — are filed against the group but do not
		// stretch its span: they are emitted at resolution time, far
		// from the work they account for.
		a := f.acc(e.Group)
		switch e.Kind {
		case obs.EvLaneCPUCommitted:
			a.cpuCommitted += e.Arg
		case obs.EvLaneCPUWasted:
			a.cpuWasted += e.Arg
		default:
			a.conventional = true
		}
		a.span = nil
		return
	}

	a := f.acc(e.Group)
	// A group id starting over means a new run reused it: the old
	// generation is complete — retire its tree and start fresh.
	switch e.Kind {
	case obs.EvGroupStart:
		if a.execStart.ok {
			f.finalize(a)
			a = f.acc(e.Group)
		}
	case obs.EvAuxProduced:
		if a.aux.ok || a.execStart.ok {
			f.finalize(a)
			a = f.acc(e.Group)
		}
	}

	a.span = nil
	// An aux event is stamped when the auxiliary code returns and carries
	// its duration: the group's lifecycle starts where the aux did.
	first := e.TS
	if e.Kind == obs.EvAuxProduced {
		_, dur := obs.SplitAuxArg(e.Arg)
		first -= dur
	}
	if !a.seen {
		a.firstTS, a.lastTS, a.seen = first, e.TS, true
	} else {
		a.firstTS = min(a.firstTS, first)
		a.lastTS = max(a.lastTS, e.TS)
	}

	switch e.Kind {
	case obs.EvGroupStart:
		a.execStart.set(e)
	case obs.EvGroupFinish:
		a.execEnd.set(e)
	case obs.EvAuxProduced:
		a.aux.set(e)
	case obs.EvValidateMismatch:
		if !a.valFirst.ok {
			a.valFirst.set(e)
		}
	case obs.EvRedo:
		a.redos = append(a.redos, *e)
		if !a.valFirst.ok {
			a.valFirst.set(e)
		}
	case obs.EvValidateMatch:
		a.matched = true
		if !a.valFirst.ok {
			a.valFirst.set(e)
		}
		a.valEnd.set(e)
	case obs.EvAbort:
		a.aborted = true
		if !a.valFirst.ok {
			a.valFirst.set(e)
		}
		a.valEnd.set(e)
	case obs.EvSquash:
		a.squash.set(e)
	case obs.EvFallback:
		a.fallback.set(e)
	case obs.EvPanic:
		a.cause = CausePanic
	case obs.EvGroupTimeout:
		a.cause = CauseTimeout
	case obs.EvFootprintViolation:
		a.cause = CauseFootprint
	case obs.EvReserve:
		// Reservation events are per input: counted on the root, never a
		// child span each, so a group's tree stays bounded.
		a.reserves++
	case obs.EvReserveLost:
		a.conflicts++
	case obs.EvCommit:
		a.commits++
	}
}

// acc returns the live accumulator for the group, creating (and, past
// the live bound, evicting the stalest) as needed.
func (f *SpanFolder) acc(g int32) *spanAcc {
	a := f.live[g]
	if a == nil {
		a = spanAccPool.Get().(*spanAcc)
		a.reset(g)
		f.live[g] = a
		if f.keep > 0 && len(f.live) > maxLiveGroups {
			f.evictStalest()
		}
	}
	return a
}

// evictStalest force-finalizes the live accumulator with the oldest last
// event — necessarily a stale partial (a healthy run's groups retire via
// generation close-out long before the bound bites).
func (f *SpanFolder) evictStalest() {
	var victim *spanAcc
	for _, a := range f.live {
		if !a.seen {
			continue
		}
		if victim == nil || a.lastTS < victim.lastTS {
			victim = a
		}
	}
	if victim != nil {
		f.finalize(victim)
	}
}

// finalize retires a generation: its tree (cached or freshly folded)
// joins the completed trees — overwriting the oldest once keep are held,
// which is never refolded again — and the accumulator returns to the pool.
func (f *SpanFolder) finalize(a *spanAcc) {
	sp := a.span
	if sp == nil {
		sp = a.fold()
	}
	if f.keep == 0 || len(f.completed) < f.keep {
		f.completed = append(f.completed, sp)
	} else {
		f.completed[f.compHead] = sp
		f.compHead = (f.compHead + 1) % f.keep
	}
	delete(f.live, a.group)
	spanAccPool.Put(a)
}

// Doc polls the tracer and returns the current span document. While no
// new event arrives the groups are not re-assembled: the previous
// document is returned (shallow-copied so callers may stamp the tracer
// totals without racing each other). Span trees are immutable once
// handed out.
func (f *SpanFolder) Doc() *SpanDoc {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pollLocked()
	if !f.docDirty && f.cached != nil {
		cp := *f.cached
		return &cp
	}
	doc := &SpanDoc{Events: f.events, SchedulerEvents: f.schedEvents}
	groups := make([]*Span, 0, len(f.completed)+len(f.live))
	groups = append(groups, f.completed[f.compHead:]...)
	groups = append(groups, f.completed[:f.compHead]...)
	for _, a := range f.live {
		if a.span == nil {
			a.span = a.fold()
		}
		groups = append(groups, a.span)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Group != groups[j].Group {
			return groups[i].Group < groups[j].Group
		}
		return groups[i].StartNS < groups[j].StartNS
	})
	for _, g := range groups {
		if g.Partial {
			doc.PartialGroups++
		}
	}
	doc.Groups = groups
	f.cached = doc
	f.docDirty = false
	cp := *doc
	return &cp
}

// fold builds the accumulator's Span tree — the per-group construction
// BuildSpans always performed, now run once per generation instead of
// once per snapshot per call.
func (a *spanAcc) fold() *Span {
	g := a.group
	root := &Span{
		Kind: SpanGroup, Group: g,
		StartNS: a.firstTS, EndNS: a.lastTS,
		CPUCommittedNS: a.cpuCommitted, CPUWastedNS: a.cpuWasted,
		Cause:    a.cause,
		Reserves: a.reserves, Conflicts: a.conflicts, Commits: a.commits,
	}
	if a.aborted && root.Cause == 0 {
		root.Cause = CauseMismatch
	}
	instant := func(kind string, m mark) *Span {
		return &Span{Kind: kind, Group: g, StartNS: m.ts, EndNS: m.ts, Arg: m.arg}
	}
	if a.aux.ok {
		window, dur := obs.SplitAuxArg(a.aux.arg)
		root.Children = append(root.Children, &Span{
			Kind: SpanAux, Group: g,
			StartNS: a.aux.ts - dur, EndNS: a.aux.ts, DurNS: dur,
			Arg: int64(window),
		})
	}
	switch {
	case a.execStart.ok && a.execEnd.ok:
		root.Children = append(root.Children, &Span{
			Kind: SpanExec, Group: g,
			StartNS: a.execStart.ts, EndNS: a.execEnd.ts,
			DurNS: a.execEnd.ts - a.execStart.ts,
			Arg:   a.execEnd.arg,
		})
	case a.execStart.ok:
		// Finish evicted or still running: the span covers only the
		// observed start.
		sp := instant(SpanExec, a.execStart)
		sp.Partial = true
		root.Children = append(root.Children, sp)
		root.Partial = true
	case a.execEnd.ok:
		// Start evicted by ring wrap-around.
		sp := instant(SpanExec, a.execEnd)
		sp.Partial = true
		root.Children = append(root.Children, sp)
		root.Partial = true
	default:
		// No execution records at all: only marks survive.
		root.Partial = true
	}
	if a.valFirst.ok {
		sort.SliceStable(a.redos, func(i, j int) bool { return a.redos[i].TS < a.redos[j].TS })
		v := &Span{
			Kind: SpanValidate, Group: g,
			StartNS: a.valFirst.ts,
			Redos:   int32(len(a.redos)),
		}
		switch {
		case a.matched && len(a.redos) > 0:
			v.Outcome = "match-after-redo"
		case a.matched:
			v.Outcome = "match"
		case a.aborted:
			v.Outcome = "abort"
		default:
			v.Outcome = "unresolved"
			v.Partial = true
			root.Partial = true
		}
		if a.valEnd.ok {
			v.EndNS = a.valEnd.ts
			v.Arg = a.valEnd.arg
		} else {
			last := a.valFirst.ts
			if n := len(a.redos); n > 0 && a.redos[n-1].TS > last {
				last = a.redos[n-1].TS
			}
			v.EndNS = last
		}
		v.DurNS = v.EndNS - v.StartNS
		for i := range a.redos {
			v.Children = append(v.Children, &Span{
				Kind: SpanRedo, Group: g,
				StartNS: a.redos[i].TS, EndNS: a.redos[i].TS,
				Arg: a.redos[i].Arg,
			})
		}
		root.Children = append(root.Children, v)
	}
	if a.squash.ok {
		root.Children = append(root.Children, instant(SpanSquash, a.squash))
	}
	if a.fallback.ok {
		root.Children = append(root.Children, instant(SpanFallback, a.fallback))
	}
	switch {
	case a.aborted:
		root.Outcome = OutcomeAborted
	case a.squash.ok:
		root.Outcome = OutcomeSquashed
	case a.matched:
		root.Outcome = OutcomeValidated
	case a.conventional:
		root.Outcome = OutcomeConventional
	default:
		root.Outcome = OutcomeUnvalidated
	}
	root.DurNS = root.EndNS - root.StartNS
	sort.SliceStable(root.Children, func(i, j int) bool {
		return root.Children[i].StartNS < root.Children[j].StartNS
	})
	return root
}

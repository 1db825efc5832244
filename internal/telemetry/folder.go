// Incremental span folding: the streaming counterpart of BuildSpans.
//
// BuildSpans refolds a whole tracer snapshot on every call — ~3.5 MB and
// 27k allocations per call on a loaded server (BenchmarkBuildSpans), paid by
// every /spans scrape. SpanFolder instead consumes the tracer's rings
// incrementally through obs.Tracer.Poll and keeps one accumulator per group
// generation; a tree is folded only when a document reads it. Poll pays for
// the new events alone: no tree is built there. Doc pays for the groups that
// changed since the previous document: it folds those, and merges them into
// the previous document's order instead of re-sorting every held group; a
// call with nothing new returns the cached document. Finished generations
// retire into a bounded ring of accumulators, and the one the ring evicts
// becomes the next generation's, so a folder's memory stays bounded no
// matter how long the engine runs — the same flight-recorder discipline as
// the tracer itself.
package telemetry

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Folder bounds: a live folder keeps at most maxLiveGroups in-flight
// accumulators (the oldest is force-finalized past that) and retains the
// last completedRingCap finalized generations. BuildSpans folds with
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

// spanAcc accumulates one group generation's events until a document
// folds it into a Span tree. A live folder recycles its own accumulators;
// a whole-snapshot fold holds one per generation at once, so the small
// fields sit together to keep it in the allocator's 256-byte size class.
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
	queued             bool // on the pending list: changed since the last document
	cause              Cause
	conflicts, commits int32
	cpuCommitted       int64
	cpuWasted          int64
	firstTS, lastTS    int64
	// span is the generation's tree as the folder's current document
	// order lists it; nil until a document folds it. Trees handed out in a
	// SpanDoc are never mutated afterwards, so they are safe to share
	// across documents.
	span *Span
}

// reset clears the accumulator for a new generation, keeping the redo
// slice's backing array and the pending-list membership.
func (a *spanAcc) reset(group int32) {
	redos, queued := a.redos[:0], a.queued
	*a = spanAcc{group: group, redos: redos, queued: queued}
}

// SpanFolder folds tracer events into per-group span trees incrementally.
// All methods are safe for concurrent use; the folder serializes on one
// mutex and never blocks Tracer.Emit (Poll reads the lock-free rings).
type SpanFolder struct {
	mu  sync.Mutex
	tr  *obs.Tracer
	cur obs.Cursor
	buf []obs.Event

	// keep bounds the retired generations retained (and turns the live
	// bound on); zero keeps everything.
	keep int

	// live maps a group id to its in-flight accumulator's index in
	// liveAccs and liveLast; liveLast holds each one's last event stamp
	// (math.MaxInt64 before its first), so the stalest is one scan of a
	// flat array.
	live     map[int32]int
	liveAccs []*spanAcc
	liveLast []int64
	// completed holds retired accumulators, circular from compHead once
	// keep are held; spare is the one the ring last evicted, which the
	// next new generation takes.
	completed []*spanAcc
	compHead  int
	spare     *spanAcc

	// pending lists the accumulators changed since the last document, in
	// the order they first changed; removed lists trees the last document
	// shows that the next one must drop (an evicted generation's).
	pending []*spanAcc
	removed []*Span
	// insBuf and goneBuf are reorder's scratch.
	insBuf  []*Span
	goneBuf []int

	events      int
	schedEvents int
	dropped     int64

	// order is the last document's groups, by (Group, StartNS); partial
	// counts its partial roots. cached is that document, reused verbatim
	// (modulo a shallow copy) while no new event arrives; docDirty
	// invalidates it.
	order    []*Span
	partial  int
	cached   *SpanDoc
	docDirty bool
}

// NewSpanFolder returns a live folder over the tracer (which may be nil:
// Poll then folds nothing).
func NewSpanFolder(tr *obs.Tracer) *SpanFolder {
	return &SpanFolder{
		tr:        tr,
		keep:      completedRingCap,
		live:      map[int32]int{},
		completed: make([]*spanAcc, 0, completedRingCap),
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

// byStamp orders events by timestamp.
func byStamp(a, b obs.Event) int { return cmp.Compare(a.TS, b.TS) }

func (f *SpanFolder) foldBatchLocked(events []obs.Event) {
	// Poll delivers ring by ring; folding wants (stable) time order, the
	// order BuildSpans always established, so the within-batch fold is
	// insensitive to lane interleaving. A batch from one busy ring is
	// usually in order already.
	if !slices.IsSortedFunc(events, byStamp) {
		slices.SortStableFunc(events, byStamp)
	}
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
		a, _ := f.acc(e.Group)
		switch e.Kind {
		case obs.EvLaneCPUCommitted:
			a.cpuCommitted += e.Arg
		case obs.EvLaneCPUWasted:
			a.cpuWasted += e.Arg
		default:
			a.conventional = true
		}
		return
	}

	a, i := f.acc(e.Group)
	// A group id starting over means a new run reused it: the old
	// generation is complete — retire it and start fresh.
	switch e.Kind {
	case obs.EvGroupStart:
		if a.execStart.ok {
			f.finalize(a)
			a, i = f.acc(e.Group)
		}
	case obs.EvAuxProduced:
		if a.aux.ok || a.execStart.ok {
			f.finalize(a)
			a, i = f.acc(e.Group)
		}
	}

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
	f.liveLast[i] = a.lastTS

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

// acc returns the group's live accumulator and its index in liveAccs,
// creating it (and, past the live bound, first evicting the stalest) as
// needed, and queues it for the next document.
func (f *SpanFolder) acc(g int32) (*spanAcc, int) {
	i, ok := f.live[g]
	if !ok {
		if f.keep > 0 && len(f.liveAccs) >= maxLiveGroups {
			f.evictStalest()
		}
		a := f.spare
		f.spare = nil
		if a == nil {
			a = new(spanAcc)
		}
		a.reset(g)
		i = len(f.liveAccs)
		f.live[g] = i
		f.liveAccs = append(f.liveAccs, a)
		f.liveLast = append(f.liveLast, math.MaxInt64)
	}
	a := f.liveAccs[i]
	if !a.queued {
		a.queued = true
		f.pending = append(f.pending, a)
	}
	return a, i
}

// evictStalest force-finalizes the live accumulator with the oldest last
// event — necessarily a stale partial (a healthy run's groups retire via
// generation close-out long before the bound bites).
func (f *SpanFolder) evictStalest() {
	victim, oldest := -1, int64(math.MaxInt64)
	for i, ts := range f.liveLast {
		if ts < oldest {
			victim, oldest = i, ts
		}
	}
	if victim >= 0 {
		f.finalize(f.liveAccs[victim])
	}
}

// finalize retires a live generation into the completed ring. Once keep
// are held it overwrites the oldest, which is never read again: its tree
// leaves the next document, and the accumulator becomes the spare the
// next new generation takes.
func (f *SpanFolder) finalize(a *spanAcc) {
	i, last := f.live[a.group], len(f.liveAccs)-1
	if i != last {
		moved := f.liveAccs[last]
		f.liveAccs[i], f.liveLast[i] = moved, f.liveLast[last]
		f.live[moved.group] = i
	}
	f.liveAccs[last] = nil
	f.liveAccs, f.liveLast = f.liveAccs[:last], f.liveLast[:last]
	delete(f.live, a.group)

	if f.keep == 0 || len(f.completed) < f.keep {
		f.completed = append(f.completed, a)
		return
	}
	old := f.completed[f.compHead]
	f.completed[f.compHead] = a
	f.compHead = (f.compHead + 1) % f.keep
	if old.span != nil {
		f.removed = append(f.removed, old.span)
		old.span = nil
	}
	f.spare = old
}

// Doc polls the tracer and returns the current span document. While no
// new event arrives the groups are not re-assembled: the previous
// document is returned (shallow-copied so callers may stamp the tracer
// totals without racing each other). Otherwise only the generations that
// changed are folded and merged into the previous order. Span trees and
// a document's Groups slice are immutable once handed out.
func (f *SpanFolder) Doc() *SpanDoc {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pollLocked()
	if f.docDirty || f.cached == nil {
		f.reorder()
		f.cached = &SpanDoc{
			Events: f.events, SchedulerEvents: f.schedEvents,
			PartialGroups: f.partial,
			// Capped at its length, so a caller's append copies instead
			// of writing into the folder's array.
			Groups: f.order[:len(f.order):len(f.order)],
		}
		f.docDirty = false
	}
	cp := *f.cached
	return &cp
}

// spanOrder is the document's group order: by group index, then start.
func spanOrder(a, b *Span) int {
	if c := cmp.Compare(a.Group, b.Group); c != 0 {
		return c
	}
	return cmp.Compare(a.StartNS, b.StartNS)
}

// reorder folds the pending generations and merges their trees into the
// next document order.
func (f *SpanFolder) reorder() {
	ins := f.insBuf[:0]
	for _, a := range f.pending {
		a.queued = false
		if a.span != nil {
			f.removed = append(f.removed, a.span)
		}
		a.span = a.fold()
		ins = append(ins, a.span)
	}
	clear(f.pending)
	f.pending = f.pending[:0]
	if len(ins) > 0 || len(f.removed) > 0 || f.order == nil {
		f.merge(ins)
	}
	clear(ins)
	f.insBuf = ins[:0]
}

// merge builds the next document order from the last one: the removed
// trees (of changed or evicted generations) leave it, the new trees join
// it, and the runs in between are copied whole. A new tree goes after the
// trees it ties with: only a group id's live generation changes, and it
// is that id's newest.
func (f *SpanFolder) merge(ins []*Span) {
	old := f.order
	gone := f.goneBuf[:0]
	for _, sp := range f.removed {
		if sp.Partial {
			f.partial--
		}
		j, _ := slices.BinarySearchFunc(old, sp, spanOrder)
		for ; j < len(old) && old[j] != sp; j++ {
		}
		if j < len(old) {
			gone = append(gone, j)
		}
	}
	clear(f.removed)
	f.removed = f.removed[:0]
	slices.Sort(gone)
	f.goneBuf = gone
	slices.SortStableFunc(ins, spanOrder)
	for _, sp := range ins {
		if sp.Partial {
			f.partial++
		}
	}

	order := make([]*Span, 0, len(old)-len(gone)+len(ins))
	next := 0 // first index of old not yet copied
	copyTo := func(end int) {
		for len(gone) > 0 && gone[0] < end {
			order = append(order, old[next:gone[0]]...)
			next, gone = gone[0]+1, gone[1:]
		}
		order = append(order, old[next:end]...)
		next = end
	}
	for _, sp := range ins {
		copyTo(sort.Search(len(old), func(j int) bool { return spanOrder(old[j], sp) > 0 }))
		order = append(order, sp)
	}
	copyTo(len(old))
	f.order = order
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
		slices.SortStableFunc(a.redos, byStamp)
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
	slices.SortStableFunc(root.Children, func(a, b *Span) int { return cmp.Compare(a.StartNS, b.StartNS) })
	return root
}

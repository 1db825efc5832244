package telemetry

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
)

// foldChunked feeds a time-sorted log through a live folder in sequential
// chunks of the given sizes and returns its document.
func foldChunked(events []obs.Event, sizes []int) *SpanDoc {
	f := NewSpanFolder(nil)
	i := 0
	for _, n := range sizes {
		if i+n > len(events) {
			n = len(events) - i
		}
		chunk := make([]obs.Event, n)
		copy(chunk, events[i:i+n])
		f.FoldBatch(chunk)
		i += n
	}
	if i < len(events) {
		rest := make([]obs.Event, len(events)-i)
		copy(rest, events[i:])
		f.FoldBatch(rest)
	}
	return f.Doc()
}

// TestSpanFolderMatchesBuildSpans: folding the golden log incrementally —
// in chunks of every random size — must produce byte-for-byte the same
// span forest as the one-shot BuildSpans. This is the refactor's core
// contract: /spans served from the live folder is indistinguishable from
// the whole-snapshot rebuild it replaced.
func TestSpanFolderMatchesBuildSpans(t *testing.T) {
	log := goldenLog()
	sort.SliceStable(log, func(i, j int) bool { return log[i].TS < log[j].TS })
	want, _ := json.Marshal(BuildSpans(log).Groups)

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var sizes []int
		remaining := len(log)
		for remaining > 0 {
			n := 1 + rng.Intn(remaining)
			sizes = append(sizes, n)
			remaining -= n
		}
		doc := foldChunked(log, sizes)
		got, _ := json.Marshal(doc.Groups)
		if string(got) != string(want) {
			t.Fatalf("chunking %v diverged from BuildSpans:\n--- got ---\n%s\n--- want ---\n%s",
				sizes, got, want)
		}
		if doc.Events != 18 || doc.SchedulerEvents != 8 {
			t.Fatalf("chunking %v counted Events=%d SchedulerEvents=%d, want 18/8",
				sizes, doc.Events, doc.SchedulerEvents)
		}
	}
}

// TestSpanFolderGenerationSplit: when a later run reuses a group id, a
// live folder retires the finished generation instead of merging the two
// lifecycles into one corrupt tree (the bug a naive incremental fold
// would have).
func TestSpanFolderGenerationSplit(t *testing.T) {
	f := NewSpanFolder(nil)
	f.FoldBatch([]obs.Event{
		{TS: 100, Lane: 1, Kind: obs.EvGroupStart, Group: 1},
		{TS: 200, Lane: 1, Kind: obs.EvGroupFinish, Group: 1, Arg: 4},
		{TS: 250, Lane: obs.LaneCoord, Kind: obs.EvValidateMatch, Group: 1},
	})
	f.FoldBatch([]obs.Event{
		{TS: 1100, Lane: 1, Kind: obs.EvGroupStart, Group: 1},
		{TS: 1200, Lane: 1, Kind: obs.EvGroupFinish, Group: 1, Arg: 6},
	})
	doc := f.Doc()
	if len(doc.Groups) != 2 {
		t.Fatalf("got %d trees for the reused id, want 2 generations", len(doc.Groups))
	}
	if doc.Groups[0].Outcome != OutcomeValidated || doc.Groups[0].StartNS != 100 {
		t.Errorf("first generation = %+v, want validated starting at 100", doc.Groups[0])
	}
	if doc.Groups[1].Outcome != OutcomeUnvalidated || doc.Groups[1].StartNS != 1100 {
		t.Errorf("second generation = %+v, want unvalidated starting at 1100", doc.Groups[1])
	}
}

// TestSpanFolderBoundedMemory: a folder fed an unbounded stream of
// distinct never-finishing groups must stay bounded — live accumulators
// capped at maxLiveGroups (stalest force-finalized), finished trees
// capped at the completed ring.
func TestSpanFolderBoundedMemory(t *testing.T) {
	f := NewSpanFolder(nil)
	total := maxLiveGroups + 3*completedRingCap
	for g := 0; g < total; g++ {
		f.FoldBatch([]obs.Event{
			{TS: int64(g + 1), Lane: 0, Kind: obs.EvGroupFinish, Group: int32(g), Arg: 1},
		})
	}
	f.mu.Lock()
	nLive, nComp := len(f.live), len(f.completed)
	f.mu.Unlock()
	if nLive > maxLiveGroups {
		t.Errorf("live accumulators grew to %d, bound is %d", nLive, maxLiveGroups)
	}
	if nComp > completedRingCap {
		t.Errorf("completed ring grew to %d, bound is %d", nComp, completedRingCap)
	}
	doc := f.Doc()
	if len(doc.Groups) > maxLiveGroups+completedRingCap {
		t.Errorf("document carries %d trees, bound is %d",
			len(doc.Groups), maxLiveGroups+completedRingCap)
	}
}

// TestSpanFolderLiveTracer: a folder polling a real tracer across
// interleaved emission sees exactly what a full-snapshot rebuild sees.
func TestSpanFolderLiveTracer(t *testing.T) {
	tr := obs.NewTracer(2, 1<<10)
	f := NewSpanFolder(tr)
	for g := int32(0); g < 8; g++ {
		tr.Emit(int(g%2), obs.EvGroupStart, g, 0)
		if g%3 == 0 {
			f.Poll() // interleave polls with emission
		}
		tr.Emit(int(g%2), obs.EvGroupFinish, g, int64(g))
		tr.Emit(obs.LaneCoord, obs.EvValidateMatch, g, 0)
	}
	got, _ := json.Marshal(f.Doc().Groups)
	want, _ := json.Marshal(BuildSpans(tr.Snapshot()).Groups)
	if string(got) != string(want) {
		t.Errorf("live folder diverged from snapshot rebuild:\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}

// TestSpanFolderRecycledGenerationsMatchBuildSpans: a live folder whose
// completed ring wraps twice over reuses the accumulators it evicts for
// later generations. Polled and read between runs, its document must hold
// exactly the trees BuildSpans folds for the generations it retains — the
// last completedRingCap retired ones and each id's live one — so no
// recycled accumulator shows a tree, or a partial count, of its previous
// generation, and no tree read mid-generation outlives the events after it.
func TestSpanFolderRecycledGenerationsMatchBuildSpans(t *testing.T) {
	const ids = 8
	runs := 2*completedRingCap/ids + 5
	tr := obs.NewTracer(2, 1<<13)
	f := NewSpanFolder(tr)
	for r := 0; r < runs; r++ {
		for g := int32(0); g < ids; g++ {
			lane := int(g % 2)
			if g > 0 {
				tr.Emit(lane, obs.EvAuxProduced, g, obs.AuxArg(2, 10))
			}
			tr.Emit(lane, obs.EvGroupStart, g, 0)
			if g == 3 && r%4 == 1 {
				f.Doc() // cache a tree the generation's later events change
			}
			if (r+int(g))%7 == 3 {
				continue // never finishes: a partial root
			}
			tr.Emit(lane, obs.EvGroupFinish, g, int64(r*ids)+int64(g))
			switch {
			case g == 0:
			case (r+int(g))%5 == 0:
				tr.Emit(obs.LaneCoord, obs.EvValidateMismatch, g, 0)
				tr.Emit(obs.LaneCoord, obs.EvRedo, g, 1)
				tr.Emit(obs.LaneCoord, obs.EvAbort, g, 0)
				tr.Emit(obs.LaneCoord, obs.EvSquash, g, int64(r))
			default:
				tr.Emit(obs.LaneCoord, obs.EvValidateMatch, g, 0)
			}
			tr.Emit(obs.LaneCoord, obs.EvLaneCPUCommitted, g, int64(r+1))
		}
		f.Poll()
		if r%3 == 0 {
			f.Doc() // cache trees on accumulators the ring later evicts
		}
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; the comparison needs the whole log", d)
	}
	doc := f.Doc()

	// Generation r of id g retires when run r+1 starts g again, so the
	// retained trees are each id's last completedRingCap/ids+1.
	keep := completedRingCap/ids + 1
	all := BuildSpans(tr.Snapshot())
	var want []*Span
	partial := 0
	for i, sp := range all.Groups {
		later := 0
		for _, o := range all.Groups[i+1:] {
			if o.Group == sp.Group {
				later++
			}
		}
		if later < keep {
			want = append(want, sp)
			if sp.Partial {
				partial++
			}
		}
	}
	got, _ := json.Marshal(doc.Groups)
	exp, _ := json.Marshal(want)
	if len(want) != keep*ids || string(got) != string(exp) {
		t.Fatalf("folder kept %d trees, want %d:\n--- got ---\n%s\n--- want ---\n%s",
			len(doc.Groups), len(want), got, exp)
	}
	if doc.PartialGroups != partial {
		t.Errorf("PartialGroups = %d, want %d", doc.PartialGroups, partial)
	}
}

// TestSpanFolderDocGroupsOwnedByCaller: a caller may append to a
// document's Groups. That must neither write into the folder's next order
// nor be overwritten by it, even when the next document only adds trees
// after the ones the caller holds.
func TestSpanFolderDocGroupsOwnedByCaller(t *testing.T) {
	tr := obs.NewTracer(1, 1<<10)
	f := NewSpanFolder(tr)
	emit := func(g int32) {
		tr.Emit(0, obs.EvGroupStart, g, 0)
		tr.Emit(0, obs.EvGroupFinish, g, int64(g))
		tr.Emit(obs.LaneCoord, obs.EvValidateMatch, g, 0)
	}
	for g := int32(0); g < 4; g++ {
		emit(g)
	}
	f.Doc()
	// One more group: an order grown by append would now have room left.
	emit(4)
	junk := &Span{Kind: SpanGroup, Group: -7}
	held := append(f.Doc().Groups, junk)
	emit(5)
	got, _ := json.Marshal(f.Doc().Groups)
	want, _ := json.Marshal(BuildSpans(tr.Snapshot()).Groups)
	if string(got) != string(want) {
		t.Errorf("document after a caller's append diverged from BuildSpans:\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
	if held[len(held)-1] != junk {
		t.Errorf("the folder overwrote a caller's appended tree with %+v", held[len(held)-1])
	}
}

package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestEmitSnapshotRoundTrip(t *testing.T) {
	tr := NewTracer(3, 64)
	tr.Emit(0, EvGroupStart, 0, 10)
	tr.Emit(1, EvGroupStart, 1, 20)
	tr.Emit(LaneCoord, EvValidateMatch, 1, 2)
	tr.Emit(0, EvGroupFinish, 0, 8)

	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot %d events, want 4: %+v", len(evs), evs)
	}
	// Time-ordered, and timestamps never decrease.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("snapshot out of order at %d: %+v", i, evs)
		}
	}
	counts := map[EventKind]int{}
	for _, e := range evs {
		counts[e.Kind]++
	}
	if counts[EvGroupStart] != 2 || counts[EvGroupFinish] != 1 || counts[EvValidateMatch] != 1 {
		t.Fatalf("kind counts %v", counts)
	}
	for _, e := range evs {
		if e.Kind == EvValidateMatch {
			if e.Lane != LaneCoord || e.Group != 1 || e.Arg != 2 {
				t.Fatalf("validate event fields: %+v", e)
			}
		}
	}
	if tr.Emitted() != 4 || tr.Dropped() != 0 {
		t.Fatalf("emitted %d dropped %d", tr.Emitted(), tr.Dropped())
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, EvAbort, 3, 1) // must not panic
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil snapshot: %v", got)
	}
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Lanes() != 0 {
		t.Fatal("nil tracer accounting not zero")
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr := NewTracer(1, 8) // capacity rounds to 8
	for i := 0; i < 20; i++ {
		tr.Emit(0, EvLocalHit, -1, int64(i))
	}
	evs := tr.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot %d events, want 8", len(evs))
	}
	// The survivors are the newest 8, in emission order.
	for i, e := range evs {
		if e.Arg != int64(12+i) {
			t.Fatalf("event %d arg %d, want %d", i, e.Arg, 12+i)
		}
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", tr.Dropped())
	}
}

func TestNegativeAndOverflowLanesMapIntoRange(t *testing.T) {
	tr := NewTracer(2, 16)
	tr.Emit(-1, EvSquash, 7, 0)
	tr.Emit(5, EvSquash, 8, 0) // 5 % 2 == ring 1, lane recorded as 5
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("snapshot %d events", len(evs))
	}
	lanes := map[int16]bool{}
	for _, e := range evs {
		lanes[e.Lane] = true
	}
	if !lanes[-1] || !lanes[5] {
		t.Fatalf("lanes recorded %v", lanes)
	}
}

func TestMetaPackRoundTrip(t *testing.T) {
	cases := []struct {
		kind  EventKind
		lane  int16
		group int32
	}{
		{EvGroupStart, 0, 0},
		{EvAbort, -1, 1 << 20},
		{EvTaskFinish, 32000, -1},
		{EvSquash, -32000, 1<<31 - 1},
	}
	for _, c := range cases {
		k, l, g := unpackMeta(packMeta(c.kind, c.lane, c.group))
		if k != c.kind || l != c.lane || g != c.group {
			t.Fatalf("pack(%v,%d,%d) -> (%v,%d,%d)", c.kind, c.lane, c.group, k, l, g)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvNone; k < numEventKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}

func TestAuxArgRoundTrip(t *testing.T) {
	for _, c := range []struct {
		window      int
		durNS       int64
		wantW       int
		wantD       int64
		description string
	}{
		{0, 0, 0, 0, "zero"},
		{4, 80, 4, 80, "small"},
		{1<<24 - 1, 1<<39 - 1, 1<<24 - 1, 1<<39 - 1, "field maxima"},
		{1 << 30, 1 << 50, 1<<24 - 1, 1<<39 - 1, "saturates, never spills into the other field or the sign"},
	} {
		arg := AuxArg(c.window, c.durNS)
		if w, d := SplitAuxArg(arg); arg < 0 || w != c.wantW || d != c.wantD {
			t.Errorf("%s: AuxArg(%d, %d) = %#x splits to (%d, %d), want (%d, %d)",
				c.description, c.window, c.durNS, arg, w, d, c.wantW, c.wantD)
		}
	}
}

// TestEqualStampsKeepEmissionOrder is the order contract: events that share
// a phase reading come back from Snapshot (merged by stamp) and from Poll
// (ring by ring) in the order they were emitted on their ring, whatever
// their kinds — the descending kinds here are the order the old (lane,
// kind, group, arg) tie-break reversed.
func TestEqualStampsKeepEmissionOrder(t *testing.T) {
	tr := NewTracer(2, 16)
	kinds := []EventKind{EvAuxProduced, EvGroupFinish, EvGroupStart}
	for ring := 1; ring >= 0; ring-- {
		for i, k := range kinds {
			tr.EmitAt(ring, 7, k, int32(ring), int64(i))
		}
	}
	polled, dropped := tr.Poll(&Cursor{}, nil)
	for name, evs := range map[string][]Event{"Snapshot": tr.Snapshot(), "Poll": polled} {
		if len(evs) != 6 || dropped != 0 {
			t.Fatalf("%s: %d events, %d dropped: %+v", name, len(evs), dropped, evs)
		}
		for i, e := range evs {
			if ring, at := i/3, i%3; e.TS != 7 || int(e.Lane) != ring || e.Kind != kinds[at] || e.Arg != int64(at) {
				t.Fatalf("%s: event %d is %+v, want ring %d's emission %d (%v)", name, i, e, ring, at, kinds[at])
			}
		}
	}
}

// TestEmitAtWaitsForTheLapItOverwrites plays a writer descheduled between
// its ticket claim and its first store while the ring goes all the way
// round: the writer that laps onto its slot must not store over a record
// still being written (its payload would mix into the newer record under a
// sequence word a reader trusts) — it waits until the older one publishes.
func TestEmitAtWaitsForTheLapItOverwrites(t *testing.T) {
	const laneCap = 8
	tr := NewTracer(1, laneCap)
	r := &tr.rings[0]
	stalled := r.pos.Add(1) - 1 // ticket 0, claimed and not yet written
	lapped := make(chan struct{})
	go func() {
		defer close(lapped)
		for i := 1; i <= laneCap; i++ { // tickets 1..8; ticket 8 lands on slot 0
			tr.EmitAt(0, int64(i), EvLocalHit, -1, 0)
		}
	}()
	for r.slots[laneCap-1].seq.Load() != laneCap-1+seqBase {
		runtime.Gosched()
	}
	select {
	case <-lapped:
		t.Fatal("a record was written over one still in progress")
	case <-time.After(20 * time.Millisecond):
	}
	r.slots[0].seq.Store(stalled + seqBase) // the stalled writer publishes
	<-lapped
	if evs := tr.Snapshot(); len(evs) != laneCap || evs[laneCap-1].TS != laneCap {
		t.Fatalf("after the lap: %+v", evs)
	}
}

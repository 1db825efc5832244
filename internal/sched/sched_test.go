package sched

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// runLanes drives nlanes concurrent participants through the controller,
// each performing steps yields (a timeout-check Choose at every third step) and
// appending its admissions to a shared log whose order is therefore the
// schedule the controller chose. Returns the log.
func runLanes(c Controller, nlanes, steps int) []string {
	var mu sync.Mutex
	var log []string
	var wg sync.WaitGroup
	if e, ok := c.(interface{ Expect(int) }); ok {
		for l := 0; l < nlanes; l++ {
			e.Expect(l)
		}
	}
	for l := 0; l < nlanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			defer c.Done(lane)
			for s := 0; s < steps; s++ {
				if s%3 == 2 {
					v := c.Choose(PointTimeoutCheck, lane, 2)
					mu.Lock()
					log = append(log, fmt.Sprintf("c%d.%d=%d", lane, s, v))
					mu.Unlock()
				} else {
					c.Yield(PointGroupStep, lane)
					mu.Lock()
					log = append(log, fmt.Sprintf("y%d.%d", lane, s))
					mu.Unlock()
				}
			}
		}(l)
	}
	wg.Wait()
	return log
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	runOnce := func(seed uint64) ([]string, *Trace) {
		g := NewRandom(seed, WithRecording())
		log := runLanes(g, 4, 9)
		return log, g.TraceCopy()
	}
	log1, tr1 := runOnce(42)
	log2, tr2 := runOnce(42)
	if strings.Join(log1, " ") != strings.Join(log2, " ") {
		t.Fatalf("same seed, different schedules:\n%v\n%v", log1, log2)
	}
	if !tr1.Equal(tr2) {
		t.Fatalf("same seed, different traces")
	}
	log3, _ := runOnce(43)
	if strings.Join(log1, " ") == strings.Join(log3, " ") {
		t.Fatalf("different seeds produced identical schedule (possible, but suspicious for 4x9 lanes)")
	}
}

func TestGateSerializesAdmissions(t *testing.T) {
	// With instrumentation between yields, at most one lane may be inside
	// a critical step at a time.
	g := NewRandom(7)
	var inside, maxInside, violations int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for l := 0; l < 6; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			defer g.Done(lane)
			for s := 0; s < 20; s++ {
				g.Yield(PointGroupStep, lane)
				mu.Lock()
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				if inside > 1 {
					violations++
				}
				mu.Unlock()
				// The critical section: everything up to the next yield
				// runs under the admission token.
				mu.Lock()
				inside--
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d admissions overlapped (max concurrent %d)", violations, maxInside)
	}
	if g.Stalls() != 0 {
		t.Fatalf("unexpected stalls: %d", g.Stalls())
	}
}

func TestBlockReleasesToken(t *testing.T) {
	// A lane that Blocks must not hold the schedule hostage: the other
	// lane gets admitted while the first waits on a real channel.
	g := NewRandom(1)
	ch := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer g.Done(1)
		g.Yield(PointGroupStart, 1)
		g.Block(1)
		<-ch // real blocking operation
		g.Unblock(1)
		close(done)
	}()
	go func() {
		defer g.Done(2)
		g.Yield(PointGroupStart, 2)
		close(ch) // unblocks lane 1
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("schedule deadlocked across Block/Unblock")
	}
	if g.Stalls() != 0 {
		t.Fatalf("unexpected stalls: %d", g.Stalls())
	}
}

func TestPCTDeterministicAndPrioritized(t *testing.T) {
	run := func(seed uint64, depth int) []string {
		return runLanes(NewPCT(seed, depth, 64), 4, 6)
	}
	a, b := run(9, 3), run(9, 3)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("PCT not deterministic per seed:\n%v\n%v", a, b)
	}
	// Depth-1 (no change points) must also be deterministic and, ignoring
	// arrival racing at the very first admissions, strictly prioritized:
	// once all lanes are parked the same lane keeps winning until done.
	c, d := run(11, 1), run(11, 1)
	if strings.Join(c, " ") != strings.Join(d, " ") {
		t.Fatalf("depth-1 PCT not deterministic")
	}
}

func TestChooseDomainAndDegenerate(t *testing.T) {
	g := NewRandom(5, WithForcedTimeouts(0.5))
	defer g.Done(0)
	var seen [2]int
	for i := 0; i < 50; i++ {
		v := g.Choose(PointTimeoutCheck, 0, 2)
		if v < 0 || v > 1 {
			t.Fatalf("choice %d out of [0,2)", v)
		}
		seen[v]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("rate-0.5 timeout check never took one arm: %v", seen)
	}
	if v := g.Choose(PointTimeoutCheck, 0, 1); v != 0 {
		t.Fatalf("n=1 choice = %d, want 0", v)
	}
	if v := g.Choose(PointTimeoutCheck, 0, 0); v != 0 {
		t.Fatalf("n=0 choice = %d, want 0", v)
	}
}

func TestTimeoutCheckPolicy(t *testing.T) {
	g := NewRandom(3)
	defer g.Done(0)
	for i := 0; i < 30; i++ {
		if v := g.Choose(PointTimeoutCheck, 0, 2); v != 0 {
			t.Fatalf("unforced timeout check returned %d, want 0", v)
		}
	}
	f := NewRandom(3, WithForcedTimeouts(1.0))
	defer f.Done(0)
	for i := 0; i < 10; i++ {
		if v := f.Choose(PointTimeoutCheck, 0, 2); v != 1 {
			t.Fatalf("rate-1.0 forced timeout check returned %d, want 1", v)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Seed:       51966,
		Controller: "random",
		Note:       "squash races group 3 mid-step",
		Entries: []Entry{
			{Kind: KindYield, Point: PointAux, Lane: 0},
			{Kind: KindChoose, Point: PointTimeoutCheck, Lane: 2, N: 2, Choice: 0},
			{Kind: KindYield, Point: PointSquash, Lane: 0},
			{Kind: KindChoose, Point: PointTimeoutCheck, Lane: 3, N: 2, Choice: 1},
		},
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if got.Seed != tr.Seed || got.Controller != tr.Controller || got.Note != tr.Note {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	if !got.Equal(tr) {
		t.Fatalf("entries mismatch:\n%v\n%v", got.Entries, tr.Entries)
	}
	if got.Hash() != tr.Hash() {
		t.Fatalf("hash mismatch after round trip")
	}
}

func TestTraceDecodeErrors(t *testing.T) {
	for _, bad := range []string{
		"y nosuchpoint 0\n",
		"c aux 0 2\n",
		"seed notanumber\n",
		"frobnicate 1 2\n",
		"y aux notalane\n",
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Fatalf("Decode(%q) succeeded, want error", bad)
		}
	}
}

func TestParsePointRoundTrip(t *testing.T) {
	for p := Point(0); p < numPoints; p++ {
		got, ok := ParsePoint(p.String())
		if !ok || got != p {
			t.Fatalf("ParsePoint(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := ParsePoint("bogus"); ok {
		t.Fatal("ParsePoint accepted bogus name")
	}
}

func TestReplayReproducesSchedule(t *testing.T) {
	// Record a random schedule, replay it, and require the identical
	// admission log and an exact (divergence-free) replay.
	g := NewRandom(0xC0FFEE, WithRecording(), WithForcedTimeouts(0.5))
	want := runLanes(g, 4, 9)
	tr := g.TraceCopy()
	if len(tr.Entries) == 0 {
		t.Fatal("recording produced no entries")
	}

	r := NewReplay(tr, WithRecording())
	got := runLanes(r, 4, 9)
	if strings.Join(want, " ") != strings.Join(got, " ") {
		t.Fatalf("replayed schedule differs:\nrec: %v\nrep: %v", want, got)
	}
	if d := r.Divergences(); d != 0 {
		t.Fatalf("exact replay reported %d divergences", d)
	}
	if rem := r.Remaining(); rem != 0 {
		t.Fatalf("exact replay left %d entries unconsumed", rem)
	}
	// The re-recording must match entry-for-entry.
	if re := r.TraceCopy(); !re.Equal(tr) {
		t.Fatalf("re-recorded trace differs from original")
	}
}

func TestReplayToleratesDivergence(t *testing.T) {
	// Replay a trace recorded from a 4-lane run against a 3-lane run:
	// entries for the missing lane can never be admitted in order. The
	// run must still complete (stall resync) and report divergence.
	g := NewRandom(77, WithRecording())
	runLanes(g, 4, 6)
	tr := g.TraceCopy()

	r := NewReplay(tr, WithStallTimeout(50*time.Millisecond))
	done := make(chan struct{})
	go func() {
		runLanes(r, 3, 6)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("divergent replay hung")
	}
	// Depending on where the recording placed lane 3's entries, the
	// mismatch shows up as stall resyncs (Divergences) or as trailing
	// never-consumed entries (Remaining); either way the replay must
	// report it was inexact.
	if r.Divergences() == 0 && r.Remaining() == 0 {
		t.Fatal("divergent replay reported an exact replay")
	}
}

func TestReplayUnconstrainedAdmission(t *testing.T) {
	// A trace mentioning none of the run's decision points admits
	// everything freely: the run completes fast with no stalls.
	tr := &Trace{Seed: 1}
	r := NewReplay(tr)
	start := time.Now()
	runLanes(r, 3, 6)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("unconstrained replay took %v", el)
	}
	if s := r.Stalls(); s != 0 {
		t.Fatalf("unconstrained replay stalled %d times", s)
	}
}

func TestReplayUnconstrainedChoicesIgnoreArrivalOrder(t *testing.T) {
	// An unconstrained Choose takes the fallback value, which must depend
	// on the lane's own history only: the lanes arrive in a different
	// order on each replay, and every replay must decide alike, or a
	// minimized trace reproduces its failure in some replays only.
	tr := &Trace{Seed: 7, Entries: []Entry{{Kind: KindYield, Point: PointGroupStep, Lane: 0}}}
	decisions := func() []string {
		var cs []string
		for _, s := range runLanes(NewReplay(tr), 3, 6) {
			if strings.HasPrefix(s, "c") {
				cs = append(cs, s)
			}
		}
		slices.Sort(cs)
		return cs
	}
	want := decisions()
	for i := 0; i < 30; i++ {
		if got := decisions(); !slices.Equal(got, want) {
			t.Fatalf("replay %d decided %v, first replay %v", i, got, want)
		}
	}
}

func TestReplayStalledChoiceKeepsRecordedValue(t *testing.T) {
	// Lane 0 holds the token past the stall timeout while lane 1 parks on
	// a Choose whose entry is next. The force-admitted choice consumes
	// its own entry, so it must return the recorded value, and lane 1's
	// later choice must still be constrained by the trace.
	tr := &Trace{Seed: 3, Entries: []Entry{
		{Kind: KindYield, Point: PointGroupStep, Lane: 0},
		{Kind: KindChoose, Point: PointTimeoutCheck, Lane: 1, N: 1000, Choice: 777},
		{Kind: KindChoose, Point: PointTimeoutCheck, Lane: 1, N: 1000, Choice: 123},
	}}
	r := NewReplay(tr, WithStallTimeout(20*time.Millisecond))
	r.Yield(PointGroupStep, 0)
	if v := r.Choose(PointTimeoutCheck, 1, 1000); v != 777 {
		t.Errorf("stalled choice = %d, want the recorded 777", v)
	}
	if r.Stalls() != 1 {
		t.Fatalf("Stalls = %d, want 1", r.Stalls())
	}
	r.Done(0)
	if v := r.Choose(PointTimeoutCheck, 1, 1000); v != 123 {
		t.Errorf("choice after the stall = %d, want the recorded 123", v)
	}
	r.Done(1)
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestMinimizeShrinksAndPreservesFailure(t *testing.T) {
	// Build a synthetic 40-entry trace where the "failure" is the
	// presence of two specific ordered entries. Minimize must shrink to
	// exactly those two, and the result must still fail.
	var es []Entry
	for i := 0; i < 40; i++ {
		es = append(es, Entry{Kind: KindYield, Point: PointGroupStep, Lane: i % 5})
	}
	es[13] = Entry{Kind: KindYield, Point: PointSquash, Lane: 0}
	es[29] = Entry{Kind: KindChoose, Point: PointTimeoutCheck, Lane: 2, N: 2, Choice: 1}
	tr := &Trace{Seed: 9, Entries: es}

	calls := 0
	fails := func(t *Trace) bool {
		calls++
		sq, to := -1, -1
		for i, e := range t.Entries {
			if e.Point == PointSquash {
				sq = i
			}
			if e.Point == PointTimeoutCheck && e.Choice == 1 {
				to = i
			}
		}
		return sq >= 0 && to > sq
	}
	m := Minimize(tr, fails)
	if len(m.Entries) != 2 {
		t.Fatalf("minimized to %d entries, want 2: %v", len(m.Entries), m.Entries)
	}
	if !fails(m) {
		t.Fatal("minimized trace no longer fails")
	}
	if m.Seed != tr.Seed {
		t.Fatal("minimization dropped provenance")
	}
	if calls == 0 {
		t.Fatal("predicate never called")
	}
	// Idempotent on an already-minimal trace.
	m2 := Minimize(m, fails)
	if !m2.Equal(m) {
		t.Fatal("minimizing a minimal trace changed it")
	}
}

func TestMinimizeNonFailingTraceUnchanged(t *testing.T) {
	tr := &Trace{Entries: []Entry{{Kind: KindYield, Point: PointAux, Lane: 0}}}
	m := Minimize(tr, func(*Trace) bool { return false })
	if !m.Equal(tr) {
		t.Fatal("non-failing trace was altered")
	}
}

func TestMinimizedTraceReplays(t *testing.T) {
	// End-to-end satellite requirement: record a real schedule, define the
	// "failure" as lane 1's step-2 decision returning its recorded value,
	// minimize via actual replays, and prove the minimized trace still
	// reproduces the failure under Replay. A choose-value property is
	// replay-deterministic (the recorded outcome is forced whenever the
	// entry is consumed in order) even when minimization has freed other
	// lanes to run unconstrained.
	g := NewRandom(0xD1CE, WithRecording())
	log := runLanes(g, 3, 6)
	tr := g.TraceCopy()
	var target string
	for _, s := range log {
		if strings.HasPrefix(s, "c1.2=") {
			target = s
		}
	}
	if target == "" {
		t.Fatalf("recording produced no lane-1 step-2 decision: %v", log)
	}
	has := func(log []string, want string) bool {
		for _, s := range log {
			if s == want {
				return true
			}
		}
		return false
	}
	// Two consecutive replays must agree, so schedules that only
	// sometimes produce the value (stall-timing artifacts on heavily
	// minimized candidates) are treated as non-failing.
	fails := func(cand *Trace) bool {
		for i := 0; i < 2; i++ {
			r := NewReplay(cand, WithStallTimeout(50*time.Millisecond))
			if !has(runLanes(r, 3, 6), target) {
				return false
			}
		}
		return true
	}
	if !fails(tr) {
		t.Fatal("recorded trace does not reproduce under replay")
	}
	m := Minimize(tr, fails)
	if len(m.Entries) >= len(tr.Entries) {
		t.Fatalf("minimization did not shrink: %d -> %d", len(tr.Entries), len(m.Entries))
	}
	if !fails(m) {
		t.Fatal("minimized trace does not reproduce the failure")
	}
}

func TestWriteReadFile(t *testing.T) {
	tr := &Trace{Seed: 5, Controller: "pct", Note: "x", Entries: []Entry{
		{Kind: KindYield, Point: PointValidate, Lane: 1},
	}}
	path := t.TempDir() + "/t.trace"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) || got.Seed != 5 {
		t.Fatalf("file round trip mismatch: %+v", got)
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// goldenLog is the one hand-written event log every view's golden test
// renders. It covers the span model's whole surface — a non-speculative
// group 0, a validated group with one redo, an aborted group with squash
// and fallback marks (both with their auxiliary code inside their lane
// task, just ahead of the execution), and a group whose start record was
// evicted by ring wrap-around (truncated) — and the lane pairing's: dispatches
// around the executions, a dispatch still running when the log
// ends, and a finish whose dispatch was evicted. Events are deliberately
// out of time order to exercise the sort.
func goldenLog() []obs.Event {
	return []obs.Event{
		// Group 2: aborted after two redos, then squash + fallback marks.
		{TS: 6100, Lane: obs.LaneCoord, Kind: obs.EvAbort, Group: 2},
		{TS: 1390, Lane: 2, Kind: obs.EvAuxProduced, Group: 2, Arg: obs.AuxArg(4, 80)},
		{TS: 1400, Lane: 2, Kind: obs.EvGroupStart, Group: 2},
		{TS: 5400, Lane: 2, Kind: obs.EvGroupFinish, Group: 2, Arg: 0},
		{TS: 5800, Lane: obs.LaneCoord, Kind: obs.EvValidateMismatch, Group: 2},
		{TS: 5900, Lane: obs.LaneCoord, Kind: obs.EvRedo, Group: 2, Arg: 1},
		{TS: 6000, Lane: obs.LaneCoord, Kind: obs.EvRedo, Group: 2, Arg: 2},
		{TS: 6150, Lane: obs.LaneCoord, Kind: obs.EvSquash, Group: 2, Arg: 7},
		{TS: 6200, Lane: obs.LaneCoord, Kind: obs.EvFallback, Group: 2, Arg: 12},

		// Group 0: plain execution, never validated (group 0 never
		// speculates).
		{TS: 5000, Lane: 0, Kind: obs.EvGroupFinish, Group: 0, Arg: 10},
		{TS: 1000, Lane: 0, Kind: obs.EvGroupStart, Group: 0},

		// Group 1: validated on the second try.
		{TS: 1190, Lane: 1, Kind: obs.EvAuxProduced, Group: 1, Arg: obs.AuxArg(4, 80)},
		{TS: 1200, Lane: 1, Kind: obs.EvGroupStart, Group: 1},
		{TS: 5200, Lane: 1, Kind: obs.EvGroupFinish, Group: 1, Arg: 8},
		{TS: 5300, Lane: obs.LaneCoord, Kind: obs.EvValidateMismatch, Group: 1},
		{TS: 5400, Lane: obs.LaneCoord, Kind: obs.EvRedo, Group: 1, Arg: 1},
		{TS: 5600, Lane: obs.LaneCoord, Kind: obs.EvValidateMatch, Group: 1},

		// Group 3: truncated by ring overwrite — only the finish survives.
		{TS: 7000, Lane: 3, Kind: obs.EvGroupFinish, Group: 3, Arg: 3},

		// Scheduler lanes: each execution inside its task, then lane 1
		// takes a task that never finishes; lane 3 kept only a finish.
		{TS: 900, Lane: 0, Kind: obs.EvLocalHit, Group: -1},
		{TS: 5050, Lane: 0, Kind: obs.EvTaskFinish, Group: -1},
		{TS: 1100, Lane: 1, Kind: obs.EvLocalHit, Group: -1},
		{TS: 5250, Lane: 1, Kind: obs.EvTaskFinish, Group: -1},
		{TS: 6900, Lane: 1, Kind: obs.EvLocalHit, Group: -1},
		{TS: 1300, Lane: 2, Kind: obs.EvLocalHit, Group: -1},
		{TS: 5450, Lane: 2, Kind: obs.EvTaskFinish, Group: -1},
		{TS: 7050, Lane: 3, Kind: obs.EvTaskFinish, Group: -1},
	}
}

const goldenRender = `spans: 4 groups (1 partial), 18 engine events, 8 scheduler events
g000 [t+1.00µs 4.00µs] unvalidated
  exec     4.00µs outputs=10
g001 [t+1.11µs 4.49µs] validated
  aux      80ns window=4
  exec     4.00µs outputs=8
  validate 300ns match-after-redo redos=1
    redo #1 @t+5.40µs
g002 [t+1.31µs 4.89µs] aborted cause=mismatch
  aux      80ns window=4
  exec     4.00µs outputs=0
  validate 300ns abort redos=2
    redo #1 @t+5.90µs
    redo #2 @t+6.00µs
  squash   @t+6.15µs inputs=7
  fallback @t+6.20µs inputs=12
g003 [t+7.00µs 0ns] unvalidated (partial)
  exec     0ns outputs=3 (partial)
`

// TestBuildSpansGolden reconstructs the golden log and compares the
// rendered span forest against the expected tree, including the truncated
// (ring-overwritten) group 3 flagged partial.
func TestBuildSpansGolden(t *testing.T) {
	doc := BuildSpans(goldenLog())
	if got := SpanString(doc); got != goldenRender {
		t.Errorf("rendered spans mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenRender)
	}
	if doc.PartialGroups != 1 {
		t.Errorf("PartialGroups = %d, want 1", doc.PartialGroups)
	}
	if doc.Events != 18 || doc.SchedulerEvents != 8 {
		t.Errorf("Events=%d SchedulerEvents=%d, want 18/8", doc.Events, doc.SchedulerEvents)
	}
	outcomes := map[int32]string{0: OutcomeUnvalidated, 1: OutcomeValidated, 2: OutcomeAborted, 3: OutcomeUnvalidated}
	for _, g := range doc.Groups {
		if g.Outcome != outcomes[g.Group] {
			t.Errorf("group %d outcome = %q, want %q", g.Group, g.Outcome, outcomes[g.Group])
		}
	}
}

// TestBuildSpansDeterministic checks that reconstruction is insensitive to
// the snapshot's event order (the tracer merges lanes, but callers may
// feed saved logs in any order).
func TestBuildSpansDeterministic(t *testing.T) {
	log := goldenLog()
	rev := make([]obs.Event, len(log))
	for i, e := range log {
		rev[len(log)-1-i] = e
	}
	a, _ := json.Marshal(BuildSpans(log))
	b, _ := json.Marshal(BuildSpans(rev))
	if string(a) != string(b) {
		t.Errorf("reconstruction depends on input order:\n%s\nvs\n%s", a, b)
	}
}

// TestBuildSpansJSONRoundTrip ensures the /spans JSON document carries
// everything statstrace needs: unmarshalling it and rendering reproduces
// the live rendering exactly.
func TestBuildSpansJSONRoundTrip(t *testing.T) {
	doc := BuildSpans(goldenLog())
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanDoc
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if got := SpanString(&back); got != goldenRender {
		t.Errorf("round-tripped rendering mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenRender)
	}
}

// TestBuildSpansUnresolvedValidation covers a log cut off mid-validation:
// the boundary saw a mismatch and a redo but no terminal event, so the
// validate span is unresolved and partial, with timestamps covering only
// what was observed.
func TestBuildSpansUnresolvedValidation(t *testing.T) {
	doc := BuildSpans([]obs.Event{
		{TS: 100, Lane: 1, Kind: obs.EvGroupStart, Group: 1},
		{TS: 900, Lane: 1, Kind: obs.EvGroupFinish, Group: 1, Arg: 5},
		{TS: 1000, Lane: obs.LaneCoord, Kind: obs.EvValidateMismatch, Group: 1},
		{TS: 1100, Lane: obs.LaneCoord, Kind: obs.EvRedo, Group: 1, Arg: 1},
	})
	if len(doc.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(doc.Groups))
	}
	g := doc.Groups[0]
	if !g.Partial || g.Outcome != OutcomeUnvalidated {
		t.Errorf("group partial=%v outcome=%q, want partial unvalidated", g.Partial, g.Outcome)
	}
	var v *Span
	for _, c := range g.Children {
		if c.Kind == SpanValidate {
			v = c
		}
	}
	if v == nil {
		t.Fatal("no validate span")
	}
	if v.Outcome != "unresolved" || !v.Partial {
		t.Errorf("validate outcome=%q partial=%v, want unresolved partial", v.Outcome, v.Partial)
	}
	if v.StartNS != 1000 || v.EndNS != 1100 {
		t.Errorf("validate bounds [%d,%d], want [1000,1100] (observed events only)", v.StartNS, v.EndNS)
	}
	if doc.PartialGroups != 1 {
		t.Errorf("PartialGroups = %d, want 1", doc.PartialGroups)
	}
}

// TestBuildSpansRunLevelAndRootFacts: a breaker-denied run's event (group
// -1) is counted but opens no group, and a root's reservation counts and
// abort cause show in the tree (of the saved document too), the waterfall
// chain and the Chrome record's args.
func TestBuildSpansRunLevelAndRootFacts(t *testing.T) {
	log := []obs.Event{
		{TS: 10, Lane: obs.LaneCoord, Kind: obs.EvBreakerDenied, Group: -1},
		{TS: 100, Lane: 0, Kind: obs.EvGroupStart, Group: 0},
		{TS: 150, Lane: 0, Kind: obs.EvReserve, Group: 0, Arg: 3},
		{TS: 200, Lane: obs.LaneCoord, Kind: obs.EvCommit, Group: 0, Arg: 3},
		{TS: 250, Lane: obs.LaneCoord, Kind: obs.EvPanic, Group: 0, Arg: 1},
		{TS: 300, Lane: 0, Kind: obs.EvGroupFinish, Group: 0, Arg: 1},
	}
	doc := BuildSpans(log)
	if len(doc.Groups) != 1 || doc.PartialGroups != 0 || doc.Events != 6 {
		t.Fatalf("groups=%d partial=%d events=%d, want 1/0/6:\n%s",
			len(doc.Groups), doc.PartialGroups, doc.Events, SpanString(doc))
	}
	var fall, chrome bytes.Buffer
	RenderWaterfall(&fall, doc, nil, 0, 0)
	blob, _ := json.Marshal(doc)
	var saved SpanDoc
	if err := errors.Join(ChromeTrace(&chrome, log), json.Unmarshal(blob, &saved)); err != nil {
		t.Fatal(err)
	}
	for view, want := range map[string]string{
		SpanString(&saved): "cause=panic reserves=1 commits=1",
		fall.String():      "exec 200ns cause=panic reserves=1 commits=1",
		chrome.String():    `"args":{"outputs":1,"cause":"panic","reserves":1,"commits":1}`,
	} {
		if !strings.Contains(view, want) {
			t.Errorf("view lacks %q:\n%s", want, view)
		}
	}
}

// TestEveryKindReachesTheSpanModel: one event of each kind inside a
// group's start/finish bracket must change the group's tree, or the kind
// is exempt here with the view that reports it instead — so a kind added
// to obs without a case in the fold fails.
func TestEveryKindReachesTheSpanModel(t *testing.T) {
	exempt := map[obs.EventKind]string{
		obs.EvLocalHit:      "scheduler kind: LaneTasks pairs it",
		obs.EvTaskFinish:    "scheduler kind: LaneTasks pairs it",
		obs.EvBreakerDenied: "run-level, no group: reported by /signals and /healthz",
	}
	for k := obs.EventKind(1); k.String() != "unknown"; k++ {
		with := []obs.Event{
			{TS: 100, Lane: 1, Kind: obs.EvGroupStart, Group: 1},
			{TS: 150, Lane: 1, Kind: obs.EvLocalHit, Group: -1},
			{TS: 200, Lane: 1, Kind: k, Group: 1, Arg: 1},
			{TS: 300, Lane: 1, Kind: obs.EvGroupFinish, Group: 1},
		}
		without := slices.DeleteFunc(slices.Clone(with), func(e obs.Event) bool { return e.Kind == k })
		ok := !reflect.DeepEqual(BuildSpans(with).Groups, BuildSpans(without).Groups)
		if exempt[k] != "" {
			ok = !ok
		}
		if schedKind(k) {
			ok = ok && !reflect.DeepEqual(LaneTasks(with), LaneTasks(without))
		}
		if !ok {
			t.Errorf("%v (exempt: %q) does not reach its view: give the kind a span, mark or attribute in SpanFolder.fold, or exempt it with the view that reports it",
				k, exempt[k])
		}
	}
}

// TestBuildSpansEmpty keeps the degenerate cases stable.
func TestBuildSpansEmpty(t *testing.T) {
	doc := BuildSpans(nil)
	if len(doc.Groups) != 0 || doc.Events != 0 || doc.PartialGroups != 0 {
		t.Errorf("empty log produced %+v", doc)
	}
}

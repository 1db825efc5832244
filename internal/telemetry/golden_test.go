package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/telemetry -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestWaterfallGolden pins the waterfall rendering: the golden event log
// plus wasted-work attribution events, rendered as per-group bars, phase
// chains, waste shares and the critical-path footer.
func TestWaterfallGolden(t *testing.T) {
	log := append(goldenLog(),
		obs.Event{TS: 6300, Lane: obs.LaneCoord, Kind: obs.EvLaneCPUCommitted, Group: 1, Arg: 4000},
		obs.Event{TS: 6300, Lane: obs.LaneCoord, Kind: obs.EvLaneCPUWasted, Group: 2, Arg: 4600},
	)
	var b bytes.Buffer
	RenderWaterfall(&b, BuildSpans(log), nil, 0, 0)
	checkGolden(t, "testdata/waterfall.golden", b.String())
}

// TestLaneRowsGolden pins what statstrace -live prints: the waterfall at
// a chosen width with the scheduler lane rows on its time axis.
func TestLaneRowsGolden(t *testing.T) {
	var b bytes.Buffer
	RenderWaterfall(&b, BuildSpans(goldenLog()), LaneTasks(goldenLog()), 60, 3)
	checkGolden(t, "testdata/events.golden", b.String())
}

func TestChromeTraceGolden(t *testing.T) {
	var b bytes.Buffer
	if err := ChromeTrace(&b, goldenLog()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("exporter produced invalid JSON:\n%s", b.Bytes())
	}
	checkGolden(t, "testdata/chrome.golden", b.String())
}

// TestChromeTraceEmpty pins the degenerate case: no events still yields a
// well-formed, loadable document.
func TestChromeTraceEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := ChromeTrace(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("invalid JSON for empty log:\n%s", b.Bytes())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 { // the two process_name records
		t.Fatalf("records: %d", len(doc.TraceEvents))
	}
}

// TestSignalsJSONGolden pins the /signals JSON shape: field names, the
// derived rates and the windowed quantiles, computed from a hand-built
// counter history under an injected clock.
func TestSignalsJSONGolden(t *testing.T) {
	o := obs.NewObserver(1, 1024) // room for every noted event: tracer_dropped stays 0
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})
	sig.Report() // baseline sample at t=0

	clk.advance(2 * time.Second)
	noteN(o, obs.EvValidateMatch, 90)
	noteN(o, obs.EvValidateMismatch, 10)
	noteN(o, obs.EvAbort, 10)
	noteN(o, obs.EvRedo, 15)
	noteN(o, obs.EvFallback, 40)
	o.SpecCommittedInputs.Add(760)
	noteN(o, obs.EvGroupFinish, 100)
	noteN(o, obs.EvPanic, 2)
	noteN(o, obs.EvGroupTimeout, 1)
	noteN(o, obs.EvBreakerDenied, 1)
	noteN(o, obs.EvSteal, 25)
	noteN(o, obs.EvLocalHit, 75)
	noteN(o, obs.EvCommit, 300)
	for i := 0; i < 50; i++ {
		o.RoundsPerGroup.Observe(3)
	}
	noteN(o, obs.EvConventional, 200)
	noteN(o, obs.EvLaneCPUCommitted, 9_000_000)
	noteN(o, obs.EvLaneCPUWasted, 1_000_000)
	for i := 0; i < 95; i++ {
		o.ValidationLatencyNS.Observe(900)
	}
	for i := 0; i < 5; i++ {
		o.ValidationLatencyNS.Observe(60_000)
	}

	rep := sig.Report()
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/signals.golden", string(blob)+"\n")
}

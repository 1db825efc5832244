package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/racemode"
)

// BenchmarkMetricsScrapeUnderLoad measures a /metrics scrape while
// background goroutines (one per available CPU, yielding each iteration
// so a single-core machine still makes scrape progress) hammer the
// registry and tracer at full rate.
func BenchmarkMetricsScrapeUnderLoad(b *testing.B) {
	o := obs.NewObserver(8, 1<<12)
	s := NewServer(Config{Signals: NewSignals(o, SignalsConfig{})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var stop atomic.Bool
	loaders := runtime.GOMAXPROCS(0)
	for i := 0; i < loaders; i++ {
		lane := i % 8
		go func() {
			for !stop.Load() {
				o.Note(lane, obs.EvValidateMatch, int32(lane), 1)
				o.ValidationLatencyNS.Observe(int64(lane)*100 + 40)
				runtime.Gosched()
			}
		}()
	}
	defer stop.Store(true)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b.SetBytes(n)
	}
}

// BenchmarkEmitWithSSEClient measures Tracer.Emit while an SSE client
// streams /events — the acceptance bound that an attached scraper never
// blocks the engine's hot path.
func BenchmarkEmitWithSSEClient(b *testing.B) {
	o := obs.NewObserver(2, 1<<12)
	s := NewServer(Config{Signals: NewSignals(o, SignalsConfig{})})
	s.tick = 5 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	go io.Copy(io.Discard, resp.Body)

	tr := o.Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, obs.EvValidateMatch, int32(i), 1)
	}
}

// The allocation-gated benchmarks. Each measured body is one helper that
// the benchmark times and its ceiling test below hands to
// testing.AllocsPerRun, so a benchmark cannot drift from its gate.

// benchLoop is the timed loop of the gated benchmarks.
func benchLoop(b *testing.B, body func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// emitGroup emits the three events of one matched group g.
func emitGroup(tr *obs.Tracer, g int32) {
	lane := int(g) % 4
	tr.Emit(lane, obs.EvGroupStart, g, 0)
	tr.Emit(lane, obs.EvGroupFinish, g, 8)
	tr.Emit(0, obs.EvValidateMatch, g, 0)
}

// disabledEmit is the nil-tracer fast path.
func disabledEmit() func() {
	var tr *obs.Tracer
	return func() { tr.Emit(0, obs.EvValidateMatch, 0, 1) }
}

// warmFolderPoll is the always-on profiler's steady state, the warm
// /spans path: the folder already holds a full ring's worth of groups,
// and each call folds one new group's events and rereads the document.
func warmFolderPoll() func() {
	o := obs.NewObserver(4, 1<<12)
	f := NewSpanFolder(o.Tracer)
	g := int32(0)
	for ; g < 1<<12; g++ {
		emitGroup(o.Tracer, g)
	}
	f.Doc() // warm: fold the backlog once
	return func() {
		emitGroup(o.Tracer, g)
		g++
		f.Doc()
	}
}

// signalsReport is one windowed report against a live observer — the
// /signals and gauge-sampling hot path.
func signalsReport() func() {
	o := obs.NewObserver(4, 1<<12)
	sig := NewSignals(o, SignalsConfig{Window: 5 * time.Second})
	sig.Report()
	var i int64
	return func() {
		o.Note(obs.LaneCoord, obs.EvValidateMatch, 0, 0)
		o.ValidationLatencyNS.Observe(i&1023 + 1)
		i++
		sig.Report()
	}
}

// BenchmarkEmitDisabledObserver re-measures the nil-observer fast path in
// this package's context: the ≤5ns budget the telemetry layer must not
// disturb.
func BenchmarkEmitDisabledObserver(b *testing.B) { benchLoop(b, disabledEmit()) }

// BenchmarkSpanFolderWarm: allocs/op must stay O(new events), not O(ring)
// like the one-shot BuildSpans below (~27k allocs/op).
func BenchmarkSpanFolderWarm(b *testing.B) { benchLoop(b, warmFolderPoll()) }

// BenchmarkSignalsReport times the windowed report.
func BenchmarkSignalsReport(b *testing.B) { benchLoop(b, signalsReport()) }

// TestSpanFolderWarmAllocs gates the body of BenchmarkSpanFolderWarm: once
// the folder is warm, serving /spans after a handful of new events costs
// O(new events), not the whole-snapshot rebuild's ~27k allocs/op.
func TestSpanFolderWarmAllocs(t *testing.T) { allocCeiling(t, 64, warmFolderPoll()) }

// TestSignalsReportAllocs gates the body of BenchmarkSignalsReport.
func TestSignalsReportAllocs(t *testing.T) { allocCeiling(t, 16, signalsReport()) }

// TestEmitDisabledObserverAllocs gates the body of
// BenchmarkEmitDisabledObserver.
func TestEmitDisabledObserverAllocs(t *testing.T) { allocCeiling(t, 0, disabledEmit()) }

// allocCeiling fails t when one call of body, the measured loop body of a
// gated benchmark, allocates more than ceiling.
func allocCeiling(t *testing.T, ceiling float64, body func()) {
	t.Helper()
	if racemode.Enabled {
		t.Skip("race-mode sync.Pool drops puts at random; allocs/run is not meaningful")
	}
	if got := testing.AllocsPerRun(50, body); got > ceiling {
		t.Errorf("%.1f allocs/run, ceiling %v", got, ceiling)
	}
}

// BenchmarkBuildSpans measures span reconstruction over a full ring.
func BenchmarkBuildSpans(b *testing.B) {
	o := obs.NewObserver(4, 1<<12)
	for g := int32(0); g < 1<<12; g++ {
		emitGroup(o.Tracer, g)
	}
	snap := o.Tracer.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSpans(snap)
	}
}

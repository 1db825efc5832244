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
)

// BenchmarkMetricsScrapeUnderLoad measures a /metrics scrape while
// background goroutines (one per available CPU, yielding each iteration
// so a single-core machine still makes scrape progress) hammer the
// registry and tracer at full rate — the scrape-under-load number
// BENCH_pr4.json records.
func BenchmarkMetricsScrapeUnderLoad(b *testing.B) {
	o := obs.NewObserver(8, 1<<12)
	s := NewServer(Config{Observer: o})
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
	s := NewServer(Config{Observer: o, SSEInterval: 5 * time.Millisecond})
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

// BenchmarkEmitDisabledObserver re-measures the nil-observer fast path in
// this package's context: the ≤5ns budget the telemetry layer must not
// disturb.
func BenchmarkEmitDisabledObserver(b *testing.B) {
	var tr *obs.Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, obs.EvValidateMatch, int32(i), 1)
	}
}

// BenchmarkSpanFolderWarm measures the always-on profiler's steady
// state: the folder already holds a full ring's worth of groups, and
// each iteration folds one new group's events and rereads the document.
// This is the warm /spans path; its allocs/op must stay O(new events),
// not O(ring) like the one-shot BuildSpans above — the BENCH_budget.json
// ceiling enforces the gap (the budget is 10% of the BuildSpans
// baseline's 27036 allocs/op).
func BenchmarkSpanFolderWarm(b *testing.B) {
	o := obs.NewObserver(4, 1<<12)
	f := NewSpanFolder(o.Tracer)
	for g := int32(0); g < 1<<12; g++ {
		lane := int(g) % 4
		o.Tracer.Emit(lane, obs.EvGroupStart, g, 0)
		o.Tracer.Emit(lane, obs.EvGroupFinish, g, 8)
		o.Tracer.Emit(0, obs.EvValidateMatch, g, 0)
	}
	f.Doc() // warm: fold the backlog once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := int32(1<<12 + i)
		lane := int(g) % 4
		o.Tracer.Emit(lane, obs.EvGroupStart, g, 0)
		o.Tracer.Emit(lane, obs.EvGroupFinish, g, 8)
		o.Tracer.Emit(0, obs.EvValidateMatch, g, 0)
		f.Doc()
	}
}

// BenchmarkSignalsReport measures one windowed report against a live
// observer — the /signals and gauge-sampling hot path. Like the warm
// folder it carries an allocs/op ceiling in BENCH_budget.json.
func BenchmarkSignalsReport(b *testing.B) {
	o := obs.NewObserver(4, 1<<12)
	sig := NewSignals(o, SignalsConfig{Window: 5 * time.Second})
	sig.Report()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Note(obs.LaneCoord, obs.EvValidateMatch, 0, 0)
		o.ValidationLatencyNS.Observe(int64(i)&1023 + 1)
		sig.Report()
	}
}

// BenchmarkBuildSpans measures span reconstruction over a full ring.
func BenchmarkBuildSpans(b *testing.B) {
	o := obs.NewObserver(4, 1<<12)
	for g := int32(0); g < 1<<12; g++ {
		lane := int(g) % 4
		o.Tracer.Emit(lane, obs.EvGroupStart, g, 0)
		o.Tracer.Emit(lane, obs.EvGroupFinish, g, 8)
		o.Tracer.Emit(0, obs.EvValidateMatch, g, 0)
	}
	snap := o.Tracer.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSpans(snap)
	}
}

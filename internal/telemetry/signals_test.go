package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// noteN reports n occurrences of an event-backed fact the way the runtime
// does, through Note: n events for a counting kind, one event carrying n
// for a kind whose counter advances by its Arg.
func noteN(o *obs.Observer, kind obs.EventKind, n int64) {
	if kind.Fact().ByArg {
		o.Note(obs.LaneCoord, kind, 0, n)
		return
	}
	for ; n > 0; n-- {
		o.Note(obs.LaneCoord, kind, 0, 0)
	}
}

// TestSignalsWindowedRates: the report's rates come from window deltas,
// not lifetime totals — pre-window history must not leak in.
func TestSignalsWindowedRates(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	// Ancient history: a storm that must age out.
	noteN(o, obs.EvAbort, 1000)
	noteN(o, obs.EvValidateMatch, 1000)
	sig.Report()

	// Move past the window, then record healthy traffic only.
	clk.advance(30 * time.Second)
	sig.Report() // baseline inside the new window
	clk.advance(2 * time.Second)
	noteN(o, obs.EvValidateMatch, 80)
	noteN(o, obs.EvValidateMismatch, 20)
	noteN(o, obs.EvRedo, 30)
	noteN(o, obs.EvLaneCPUCommitted, 900)
	noteN(o, obs.EvLaneCPUWasted, 100)
	rep := sig.Report()

	if rep.Validations != 80 {
		t.Errorf("windowed validations = %d, want 80 (lifetime history leaked)", rep.Validations)
	}
	if rep.AbortRate != 0 {
		t.Errorf("abort rate = %v, want 0 — the old storm is outside the window", rep.AbortRate)
	}
	if rep.MismatchRate != 0.25 {
		t.Errorf("mismatch rate = %v, want 0.25", rep.MismatchRate)
	}
	if rep.RedoRate != 0.375 {
		t.Errorf("redo rate = %v, want 0.375", rep.RedoRate)
	}
	if rep.WastedWorkRatio != 0.1 {
		t.Errorf("wasted-work ratio = %v, want 0.1", rep.WastedWorkRatio)
	}
}

// TestSignalsQuantilesAreWindowed: validation latency quantiles must come
// from the window's bucket deltas — a slow pre-window tail cannot poison
// the current p99.
func TestSignalsQuantilesAreWindowed(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	for i := 0; i < 100; i++ {
		o.ValidationLatencyNS.Observe(1 << 20) // ~1ms tail, old
	}
	sig.Report()
	clk.advance(30 * time.Second) // tail ages out
	sig.Report()
	clk.advance(time.Second)
	for i := 0; i < 100; i++ {
		o.ValidationLatencyNS.Observe(1000)
	}
	rep := sig.Report()
	if rep.ValidationP99NS >= 1<<20 {
		t.Errorf("windowed p99 = %dns still reflects the aged-out tail", rep.ValidationP99NS)
	}
	if rep.ValidationP50NS > 2047 {
		t.Errorf("windowed p50 = %dns, want within the 1µs bucket", rep.ValidationP50NS)
	}

	// Lifetime quantile still sees the tail — proving the report's number
	// is genuinely windowed, not the histogram's own.
	if o.ValidationLatencyNS.Quantile(0.99) < 1<<20 {
		t.Fatal("lifetime p99 lost the tail; test premise broken")
	}
}

// TestSignalsRecovery: after a storm, every derived rate must return to
// zero once the storm's samples age out of the window.
func TestSignalsRecovery(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 5 * time.Second, Now: clk.now})

	sig.Report()
	clk.advance(time.Second)
	noteN(o, obs.EvAbort, 50)
	noteN(o, obs.EvValidateMatch, 50)
	noteN(o, obs.EvFallback, 500)
	noteN(o, obs.EvLaneCPUWasted, 1e6)
	if rep := sig.Report(); rep.AbortRate != 0.5 {
		t.Fatalf("storm abort rate = %v, want 0.5", rep.AbortRate)
	}

	var rep SignalsReport
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		noteN(o, obs.EvValidateMatch, 10)
		rep = sig.Report()
	}
	if rep.AbortRate != 0 || rep.FallbackRate != 0 || rep.WastedWorkRatio != 0 {
		t.Errorf("rates did not recover after the storm aged out: %+v", rep)
	}
	if rep.Validations == 0 {
		t.Error("recovered window lost its healthy validations")
	}
}

// TestSignalsBreakerSnapshot: a configured breaker's state rides along on
// every report.
func TestSignalsBreakerSnapshot(t *testing.T) {
	o := obs.NewObserver(1, 64)
	br := NewBreaker(BreakerConfig{})
	sig := NewSignals(o, SignalsConfig{Window: time.Second, Breaker: br})
	rep := sig.Report()
	if rep.Breaker == nil {
		t.Fatal("report carries no breaker snapshot")
	}
}

// TestSignalsGauges: Register exposes the last report's rates through the
// registry without advancing the window.
func TestSignalsGauges(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})
	sig.Register(o.Reg)

	sig.Report()
	clk.advance(time.Second)
	noteN(o, obs.EvValidateMatch, 3)
	noteN(o, obs.EvAbort, 1)
	sig.Report()

	text := o.Reg.Text()
	for _, want := range []string{
		"signals_abort_rate_ppm 250000",
		"signals_window_validations 4",
		"signals_wasted_work_ratio_ppm 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHealthOverSharedSignals: the /healthz verdict judges the report
// /signals serves, with the rates copied unchanged.
func TestHealthOverSharedSignals(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	sig.Report()
	clk.advance(time.Second)
	noteN(o, obs.EvValidateMatch, 10)
	noteN(o, obs.EvAbort, 10)
	rep := sig.Report()
	hr := judge(rep)
	if hr.State != "aborting" {
		t.Fatalf("judged %q over 50%% aborts, want aborting: %+v", hr.State, hr)
	}
	if hr.Validations != rep.Validations || hr.AbortRate != rep.AbortRate {
		t.Errorf("verdict (%+v) diverged from the signals report (%+v)", hr, rep)
	}
}

package telemetry

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock drives a Signals window deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestHealthFlipsAndRecovers walks the /healthz verdict through the
// acceptance scenario: healthy speculation, then a fault-injected
// mismatch/abort storm flips ok → aborting, and once the storm ages out
// of the sliding window the verdict recovers to ok.
func TestHealthFlipsAndRecovers(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	// Healthy traffic: matches and speculative commits only.
	noteN(o, obs.EvValidateMatch, 100)
	o.SpecCommittedInputs.Add(1000)
	rep := judge(sig.Report())
	if rep.State != "ok" {
		t.Fatalf("healthy traffic judged %q, want ok: %+v", rep.State, rep)
	}

	// Storm: most boundaries mismatch, many abort, fallback kicks in.
	clk.advance(2 * time.Second)
	noteN(o, obs.EvValidateMatch, 20)
	noteN(o, obs.EvValidateMismatch, 80)
	noteN(o, obs.EvAbort, 30)
	noteN(o, obs.EvFallback, 500)
	rep = judge(sig.Report())
	if rep.State != "aborting" {
		t.Fatalf("storm judged %q, want aborting: %+v", rep.State, rep)
	}
	if rep.AbortRate < 0.25 {
		t.Errorf("storm abort rate %.2f, want >= 0.25", rep.AbortRate)
	}

	// Quiet traffic resumes; the storm sample must age out of the window
	// and the verdict return to ok (passing through degraded while the
	// storm still straddles the window is fine).
	sawOK := false
	for i := 0; i < 15; i++ {
		clk.advance(1 * time.Second)
		noteN(o, obs.EvValidateMatch, 10)
		o.SpecCommittedInputs.Add(100)
		rep = judge(sig.Report())
		if rep.State == "ok" {
			sawOK = true
		}
	}
	if !sawOK || rep.State != "ok" {
		t.Fatalf("never recovered: final state %q (%+v)", rep.State, rep)
	}
}

// TestHealthDegradedOnMismatchPressure: high first-try rejection without
// aborts is a warning, not an outage — degraded, not aborting.
func TestHealthDegradedOnMismatchPressure(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	sig.Report() // baseline
	clk.advance(time.Second)
	noteN(o, obs.EvValidateMatch, 10)
	noteN(o, obs.EvValidateMismatch, 8)
	rep := judge(sig.Report())
	if rep.State != "degraded" {
		t.Fatalf("mismatch pressure judged %q, want degraded: %+v", rep.State, rep)
	}
	if rep.MismatchRate < 0.5 {
		t.Errorf("mismatch rate %.2f, want >= 0.5", rep.MismatchRate)
	}
}

// TestHealthDegradedOnFallbackTrickle: a small fallback share degrades
// even when every observed validation matches.
func TestHealthDegradedOnFallbackTrickle(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	sig.Report()
	clk.advance(time.Second)
	noteN(o, obs.EvValidateMatch, 100)
	o.SpecCommittedInputs.Add(900)
	noteN(o, obs.EvFallback, 100) // 10% of committed inputs came from fallback
	rep := judge(sig.Report())
	if rep.State != "degraded" {
		t.Fatalf("fallback trickle judged %q, want degraded: %+v", rep.State, rep)
	}
}

// TestHealthMinValidations: below the validation floor (one resolved
// boundary) the validation rates are not judged — first-try rejections
// with no boundary resolved yet are no verdict.
func TestHealthMinValidations(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	sig.Report()
	clk.advance(time.Second)
	noteN(o, obs.EvValidateMismatch, 3)
	rep := judge(sig.Report())
	if rep.State != "ok" || rep.Validations != 0 {
		t.Fatalf("3 mismatches and no resolved boundary judged %q (%d validations), want ok: %+v",
			rep.State, rep.Validations, rep)
	}
	noteN(o, obs.EvValidateMatch, 1)
	if rep = judge(sig.Report()); rep.State != "degraded" {
		t.Fatalf("one resolved boundary after 3 mismatches judged %q, want degraded: %+v", rep.State, rep)
	}
}

// TestHealthCounterReset: a fresh observer behind the same aggregator
// (counter regression) must clamp deltas to zero, not panic or go negative.
func TestHealthCounterReset(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})

	noteN(o, obs.EvValidateMatch, 100)
	sig.Report()
	clk.advance(time.Second)
	// Point the aggregator at a fresh observer: every counter now reads
	// below the baseline sample.
	sig.o = obs.NewObserver(1, 64)
	rep := judge(sig.Report())
	if rep.State != "ok" || rep.Validations != 0 {
		t.Fatalf("counter reset judged %q with %d validations, want ok/0: %+v",
			rep.State, rep.Validations, rep)
	}
}

// TestHealthSampleBound: pounding Report far past maxSignalSamples must keep
// the ring bounded (pairwise collapse) without losing window coverage.
func TestHealthSampleBound(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: time.Hour, Now: clk.now})

	for i := 0; i < 4*maxSignalSamples; i++ {
		clk.advance(time.Millisecond)
		noteN(o, obs.EvValidateMatch, 1)
		sig.Report()
	}
	sig.mu.Lock()
	n := len(sig.samples)
	sig.mu.Unlock()
	if n > maxSignalSamples+1 {
		t.Fatalf("sample ring grew to %d, bound is %d", n, maxSignalSamples)
	}
	rep := judge(sig.Report())
	if rep.Validations == 0 {
		t.Fatal("collapse lost the window's validations")
	}
}

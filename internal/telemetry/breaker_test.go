package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testBreakerCfg(clk *fakeClock) BreakerConfig {
	return BreakerConfig{
		Window:         10 * time.Second,
		MinRuns:        5,
		TripRate:       0.5,
		Cooldown:       30 * time.Second,
		HalfOpenProbes: 3,
		Now:            clk.now,
	}
}

func TestBreakerTripCooldownRecover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(testBreakerCfg(clk))

	// Closed: healthy runs keep it closed.
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatalf("run %d: closed breaker denied speculation", i)
		}
		b.Record(false)
		clk.advance(100 * time.Millisecond)
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("after healthy runs: state %v", s)
	}

	// Age the healthy samples out of the window, then trip with failures.
	clk.advance(11 * time.Second)
	for i := 0; i < 5; i++ {
		b.Allow()
		b.Record(true)
		clk.advance(100 * time.Millisecond)
	}
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("after failure burst: state %v", s)
	}
	snap := b.Snapshot()
	if snap.Trips != 1 {
		t.Fatalf("trips = %d, want 1", snap.Trips)
	}

	// Open: speculation denied until the cooldown elapses.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatal("open breaker allowed speculation inside cooldown")
		}
		clk.advance(time.Second)
	}
	if got := b.Snapshot().Denied; got != 3 {
		t.Fatalf("denied = %d, want 3", got)
	}

	// Cooldown elapsed: half-open, probes admitted.
	clk.advance(30 * time.Second)
	if s := b.State(); s != BreakerHalfOpen {
		t.Fatalf("after cooldown: state %v", s)
	}
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("probe %d denied while half-open", i)
		}
		b.Record(false)
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("after %d good probes: state %v", 3, s)
	}
	if got := b.Snapshot().Probes; got != 3 {
		t.Fatalf("probes = %d, want 3", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(testBreakerCfg(clk))
	for i := 0; i < 5; i++ {
		b.Allow()
		b.Record(true)
	}
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("state %v, want open", s)
	}
	clk.advance(31 * time.Second)
	if !b.Allow() {
		t.Fatal("probe denied after cooldown")
	}
	b.Record(true) // failed probe
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("after failed probe: state %v, want open", s)
	}
	if got := b.Snapshot().Trips; got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	// The fresh open period denies again.
	if b.Allow() {
		t.Fatal("re-opened breaker allowed speculation")
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	// Failures older than the window must not count toward the rate.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(testBreakerCfg(clk))
	for i := 0; i < 4; i++ {
		b.Allow()
		b.Record(true)
	}
	clk.advance(11 * time.Second) // all failures age out
	for i := 0; i < 5; i++ {
		b.Allow()
		b.Record(false)
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v, want closed (stale failures aged out)", s)
	}
	snap := b.Snapshot()
	if snap.FailureRate != 0 {
		t.Fatalf("failure rate %.2f, want 0", snap.FailureRate)
	}
}

func TestBreakerMinRuns(t *testing.T) {
	// Below MinRuns the rate is never judged, even at 100% failures.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(testBreakerCfg(clk))
	for i := 0; i < 4; i++ {
		b.Allow()
		b.Record(true)
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v, want closed below MinRuns", s)
	}
}

func TestBreakerRegisterExposesMetrics(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(testBreakerCfg(clk))
	reg := obs.NewRegistry()
	b.Register(reg)
	for i := 0; i < 5; i++ {
		b.Allow()
		b.Record(true)
	}
	b.Allow() // denied
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"breaker_state 2",
		"breaker_trips_total 1",
		"breaker_denied_runs_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

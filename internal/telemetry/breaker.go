package telemetry

// The circuit breaker bounds the cost of pathological input streams: §4.6
// already bounds one misspeculation's cost (squash + sequential fallback),
// but a stream that aborts every input vector keeps paying full speculation
// overhead (aux production, wasted group work, validation) for zero gain.
// The breaker watches the abort/panic/timeout rate over a sliding window
// and, when it crosses a threshold, disables speculation for a cooldown —
// the runs execute conventionally at zero extra cost — then half-opens to
// re-probe with a few speculative runs before trusting the stream again. It
// is the engine's core.Admission policy; it lives here, beside the
// /metrics, /healthz and /signals views that surface it.

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

// The three breaker states, in escalation order: Closed (speculation
// allowed, outcomes windowed), Open (speculation suppressed until the
// cooldown elapses), HalfOpen (a limited number of speculative probe runs
// decide whether to close again or re-open).
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String returns the state's wire name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig sets the sliding window, trip threshold and recovery
// behaviour. Zero values pick the defaults noted per field.
type BreakerConfig struct {
	// Window is the sliding window the failure rate is computed over
	// (default 10s).
	Window time.Duration
	// MinRuns is the minimum number of windowed run outcomes before the
	// rate is judged at all (default 5).
	MinRuns int
	// TripRate is the failure fraction (aborted, panicked or timed-out
	// runs / windowed runs) at which the breaker opens (default 0.5).
	TripRate float64
	// Cooldown is how long the breaker stays open before half-opening to
	// re-probe (default 30s).
	Cooldown time.Duration
	// HalfOpenProbes is the number of consecutive successful probe runs
	// required to close again (default 3). Any probe failure re-opens.
	HalfOpenProbes int
	// Now supplies the clock (default time.Now); tests inject a fake.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.MinRuns <= 0 {
		c.MinRuns = 5
	}
	if c.TripRate <= 0 {
		c.TripRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// breakerSample is one run outcome.
type breakerSample struct {
	t      time.Time
	failed bool
}

// maxBreakerSamples bounds the outcome ring; beyond it the oldest
// in-window samples are dropped (the rate loses a little history, the
// memory stays bounded).
const maxBreakerSamples = 1024

// Breaker is a sliding-window abort-rate circuit breaker gating
// speculation, a core.Admission. Attach one to core.Options.Breaker: before
// speculating the engine asks Allow, and after every speculative run it
// Records whether the run aborted, panicked or timed out. All methods are
// safe for concurrent use across runs sharing the breaker.
type Breaker struct {
	cfg BreakerConfig

	mu             sync.Mutex
	state          BreakerState
	openedAt       time.Time
	probeSuccesses int
	samples        []breakerSample

	trips  int64
	denied int64
	probes int64
}

// NewBreaker returns a closed breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a run may speculate now. Open → false until the
// cooldown elapses, at which point the breaker half-opens and admits
// probe runs. Each denial is counted (see Snapshot).
func (b *Breaker) Allow() bool {
	now := b.cfg.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cooledDown(now) {
		b.state = BreakerHalfOpen
		b.probeSuccesses = 0
	}
	switch b.state {
	case BreakerOpen:
		b.denied++
		return false
	case BreakerHalfOpen:
		b.probes++
	}
	return true
}

// Record feeds one speculative run's outcome: failed means the run
// aborted, panicked or timed out. In the closed state outcomes are
// windowed and the failure rate judged against TripRate; in the half-open
// state a single failure re-opens and HalfOpenProbes consecutive
// successes close.
func (b *Breaker) Record(failed bool) {
	now := b.cfg.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if failed {
			b.trip(now)
			return
		}
		b.probeSuccesses++
		if b.probeSuccesses >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.samples = b.samples[:0]
		}
		return
	case BreakerOpen:
		// A run that started before the trip finishing late: ignore.
		return
	}

	// Closed: window the outcome and judge the rate.
	b.samples = append(b.samples, breakerSample{t: now, failed: failed})
	cutoff := now.Add(-b.cfg.Window)
	first := 0
	for first < len(b.samples) && b.samples[first].t.Before(cutoff) {
		first++
	}
	if first > 0 {
		b.samples = append(b.samples[:0], b.samples[first:]...)
	}
	if len(b.samples) > maxBreakerSamples {
		b.samples = append(b.samples[:0], b.samples[len(b.samples)-maxBreakerSamples:]...)
	}
	if total := len(b.samples); total >= b.cfg.MinRuns && float64(b.failures())/float64(total) >= b.cfg.TripRate {
		b.trip(now)
	}
}

// trip opens the breaker (caller holds b.mu).
func (b *Breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.samples = b.samples[:0]
	b.trips++
}

// cooledDown reports whether an open breaker's cooldown has elapsed by now,
// so the next Allow half-opens it (caller holds b.mu).
func (b *Breaker) cooledDown(now time.Time) bool {
	return b.state == BreakerOpen && now.Sub(b.openedAt) >= b.cfg.Cooldown
}

// failures counts the windowed outcomes that failed (caller holds b.mu).
func (b *Breaker) failures() int {
	n := 0
	for _, s := range b.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// State returns the breaker's current position, advancing open → half-open
// when the cooldown has elapsed (so a scrape observes the same state a run
// would).
func (b *Breaker) State() BreakerState {
	now := b.cfg.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cooledDown(now) {
		return BreakerHalfOpen
	}
	return b.state
}

// BreakerSnapshot is the breaker's exported state: the /healthz and
// /signals payload section and the source of the registry's
// function-backed instruments.
type BreakerSnapshot struct {
	// State is the wire name of the breaker's position.
	State string `json:"state"`
	// Trips counts closed/half-open → open transitions.
	Trips int64 `json:"trips"`
	// Denied counts Allow calls refused while open.
	Denied int64 `json:"denied_runs"`
	// Probes counts speculative runs admitted while half-open (plus the
	// one that half-opened the breaker).
	Probes int64 `json:"probe_runs"`
	// WindowedRuns and FailureRate describe the current closed-state
	// window: outcomes retained and the fraction that failed.
	WindowedRuns int     `json:"windowed_runs"`
	FailureRate  float64 `json:"failure_rate"`
}

// Snapshot returns the breaker's current exported state.
func (b *Breaker) Snapshot() BreakerSnapshot {
	state := b.State()
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := BreakerSnapshot{
		State:        state.String(),
		Trips:        b.trips,
		Denied:       b.denied,
		Probes:       b.probes,
		WindowedRuns: len(b.samples),
	}
	if len(b.samples) > 0 {
		snap.FailureRate = float64(b.failures()) / float64(len(b.samples))
	}
	return snap
}

// Register exposes the breaker through a metrics registry as
// function-backed instruments: breaker_state (0 closed, 1 half-open,
// 2 open), breaker_trips_total, breaker_denied_runs_total and
// breaker_probe_runs_total — the /metrics face of the breaker.
func (b *Breaker) Register(reg *obs.Registry) {
	locked := func(n *int64) func() int64 {
		return func() int64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return *n
		}
	}
	reg.GaugeFunc("breaker_state", func() int64 { return int64(b.State()) })
	reg.CounterFunc("breaker_trips_total", locked(&b.trips))
	reg.CounterFunc("breaker_denied_runs_total", locked(&b.denied))
	reg.CounterFunc("breaker_probe_runs_total", locked(&b.probes))
	for name, help := range map[string]string{
		"breaker_state":             "circuit breaker position (0 closed, 1 half-open, 2 open)",
		"breaker_trips_total":       "circuit breaker closed/half-open to open transitions",
		"breaker_denied_runs_total": "runs refused speculation while the breaker was open",
		"breaker_probe_runs_total":  "speculative probe runs admitted while half-open",
	} {
		reg.SetHelp(name, help)
	}
}

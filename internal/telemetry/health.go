package telemetry

import (
	"time"

	"repro/internal/obs"
)

// HealthState is the health model's verdict over the sliding window.
type HealthState int

// The three health states: Ok (speculation behaving), Degraded (elevated
// mismatch pressure or any abort activity), Aborting (an abort storm —
// the failure mode where misspeculation clusters and the runtime spends
// its time squashing and falling back).
const (
	HealthOk HealthState = iota
	HealthDegraded
	HealthAborting
)

// String returns the state's wire name.
func (s HealthState) String() string {
	switch s {
	case HealthOk:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthAborting:
		return "aborting"
	}
	return "unknown"
}

// HealthConfig sets the sliding window and the rate thresholds of the
// health model. Zero values pick the defaults noted per field.
type HealthConfig struct {
	// Window is the sliding window rates are computed over (default 5s).
	Window time.Duration
	// MinValidations is the minimum number of boundary resolutions in
	// the window before mismatch/abort rates are judged at all — below
	// it the model will not leave Ok on validation rates (default 1).
	MinValidations int64
	// DegradedMismatchRate is the first-try rejection fraction
	// (mismatches / validations) at which the state degrades
	// (default 0.5).
	DegradedMismatchRate float64
	// DegradedFallbackRate is the fallback input fraction
	// (fallback / (fallback + speculative commits)) at which the state
	// degrades (default 0.05).
	DegradedFallbackRate float64
	// AbortingAbortRate is the aborted-boundary fraction
	// (aborts / validations) at which the state becomes Aborting
	// (default 0.25).
	AbortingAbortRate float64
	// AbortingFallbackRate is the fallback input fraction at which the
	// state becomes Aborting (default 0.5).
	AbortingFallbackRate float64
	// Now supplies the clock (default time.Now); tests inject a fake.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c HealthConfig) withDefaults() HealthConfig {
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.MinValidations <= 0 {
		c.MinValidations = 1
	}
	if c.DegradedMismatchRate <= 0 {
		c.DegradedMismatchRate = 0.5
	}
	if c.DegradedFallbackRate <= 0 {
		c.DegradedFallbackRate = 0.05
	}
	if c.AbortingAbortRate <= 0 {
		c.AbortingAbortRate = 0.25
	}
	if c.AbortingFallbackRate <= 0 {
		c.AbortingFallbackRate = 0.5
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Health judges an ok/degraded/aborting verdict from the windowed
// control signals a Signals aggregator computes. It owns no sampling of
// its own: Eval takes (or shares) one Signals report and applies the
// configured thresholds to its rates, so /healthz and /signals always
// describe the same window — one source of truth. The verdict recovers
// to Ok once a storm ages out of the signals window. Eval is cheap and
// safe for concurrent use.
type Health struct {
	cfg HealthConfig
	sig *Signals
}

// NewHealth builds a health model over o's counters, with a private
// signals aggregator carrying the config's window and clock. To share
// one aggregator between /healthz and /signals, use NewHealthOver.
func NewHealth(o *obs.Observer, cfg HealthConfig) *Health {
	cfg = cfg.withDefaults()
	return NewHealthOver(NewSignals(o, SignalsConfig{Window: cfg.Window, Now: cfg.Now}), cfg)
}

// NewHealthOver builds a health model judging an existing signals
// aggregator. The aggregator's window (not cfg.Window) is what the
// verdict covers.
func NewHealthOver(sig *Signals, cfg HealthConfig) *Health {
	return &Health{cfg: cfg.withDefaults(), sig: sig}
}

// HealthReport is one Eval verdict with the rates that produced it — the
// payload of the server's /healthz endpoint.
type HealthReport struct {
	// State is the verdict's wire name ("ok", "degraded", "aborting").
	State string `json:"state"`
	// WindowSeconds is the sliding window the rates cover.
	WindowSeconds float64 `json:"window_seconds"`
	// Validations is the number of boundary resolutions in the window.
	Validations int64 `json:"validations"`
	// MismatchRate, AbortRate and FallbackRate are the windowed rates
	// judged against the thresholds (see HealthConfig).
	MismatchRate float64 `json:"mismatch_rate"`
	AbortRate    float64 `json:"abort_rate"`
	FallbackRate float64 `json:"fallback_rate"`
	// TracerDropped is the tracer's lifetime ring-eviction total, a
	// companion signal: a storm that also overruns the rings loses
	// events.
	TracerDropped int64 `json:"tracer_dropped"`
	// Breaker is the speculation circuit breaker's snapshot, present
	// when the serving Config attached one.
	Breaker *BreakerSnapshot `json:"breaker,omitempty"`
}

// state parses the report's verdict back into a HealthState.
func (r HealthReport) state() HealthState {
	switch r.State {
	case "degraded":
		return HealthDegraded
	case "aborting":
		return HealthAborting
	}
	return HealthOk
}

// Eval takes a signals reading and returns the current verdict.
func (h *Health) Eval() HealthReport {
	return h.Judge(h.sig.Report())
}

// Judge applies the configured thresholds to an already-computed signals
// report — the path for callers who have just read the shared aggregator
// and must not advance its window twice.
func (h *Health) Judge(r SignalsReport) HealthReport {
	rep := HealthReport{
		WindowSeconds: r.WindowSeconds,
		Validations:   r.Validations,
		MismatchRate:  r.MismatchRate,
		AbortRate:     r.AbortRate,
		FallbackRate:  r.FallbackRate,
		TracerDropped: r.TracerDropped,
		Breaker:       r.Breaker,
	}

	state := HealthOk
	enoughVals := r.Validations >= h.cfg.MinValidations
	anyInputs := r.FallbackInputs+r.SpecCommittedInputs > 0
	switch {
	case (enoughVals && rep.AbortRate >= h.cfg.AbortingAbortRate) ||
		(anyInputs && rep.FallbackRate >= h.cfg.AbortingFallbackRate):
		state = HealthAborting
	case (enoughVals && (rep.MismatchRate >= h.cfg.DegradedMismatchRate || rep.AbortRate > 0)) ||
		(anyInputs && rep.FallbackRate >= h.cfg.DegradedFallbackRate):
		state = HealthDegraded
	}
	rep.State = state.String()
	return rep
}

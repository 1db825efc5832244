package telemetry

// The /healthz thresholds, applied to the rates of one signals report.
// Below minValidations boundary resolutions in the window the validation
// rates are not judged at all; the fallback rate is judged once any input
// resolved.
const (
	minValidations       = 1
	degradedMismatchRate = 0.5  // first-try rejections per validation
	degradedFallbackRate = 0.05 // fallback inputs per resolved input
	abortingAbortRate    = 0.25 // aborted boundaries per validation
	abortingFallbackRate = 0.5
)

// HealthReport is one /healthz verdict with the rates that produced it.
type HealthReport struct {
	// State is the verdict: "ok" (speculation behaving), "degraded"
	// (elevated mismatch pressure, a fallback trickle or any abort) or
	// "aborting" (an abort storm — misspeculation clusters and the runtime
	// spends its time squashing and falling back).
	State string `json:"state"`
	// WindowSeconds is the sliding window the rates cover.
	WindowSeconds float64 `json:"window_seconds"`
	// Validations is the number of boundary resolutions in the window.
	Validations int64 `json:"validations"`
	// MismatchRate, AbortRate and FallbackRate are the windowed rates
	// judged against the thresholds.
	MismatchRate float64 `json:"mismatch_rate"`
	AbortRate    float64 `json:"abort_rate"`
	FallbackRate float64 `json:"fallback_rate"`
	// TracerDropped is the tracer's lifetime ring-eviction total, a
	// companion signal: a storm that also overruns the rings loses
	// events.
	TracerDropped int64 `json:"tracer_dropped"`
	// Breaker is the speculation circuit breaker's snapshot, present
	// when the served aggregator carries one.
	Breaker *BreakerSnapshot `json:"breaker,omitempty"`
}

// judge turns one signals report into the /healthz verdict. It samples
// nothing itself, so /healthz and /signals describe the same window, and
// the verdict recovers to ok once a storm ages out of it.
func judge(r SignalsReport) HealthReport {
	rep := HealthReport{
		State:         "ok",
		WindowSeconds: r.WindowSeconds,
		Validations:   r.Validations,
		MismatchRate:  r.MismatchRate,
		AbortRate:     r.AbortRate,
		FallbackRate:  r.FallbackRate,
		TracerDropped: r.TracerDropped,
		Breaker:       r.Breaker,
	}
	enoughVals := r.Validations >= minValidations
	anyInputs := r.FallbackInputs+r.SpecCommittedInputs > 0
	switch {
	case (enoughVals && r.AbortRate >= abortingAbortRate) ||
		(anyInputs && r.FallbackRate >= abortingFallbackRate):
		rep.State = "aborting"
	case (enoughVals && (r.MismatchRate >= degradedMismatchRate || r.AbortRate > 0)) ||
		(anyInputs && r.FallbackRate >= degradedFallbackRate):
		rep.State = "degraded"
	}
	return rep
}

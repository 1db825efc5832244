package stats

// Fault tolerance surface of the SDI: panic-checked execution, the
// per-group deadline (Options.GroupTimeout), and the abort-rate circuit
// breaker. The engine guarantees a panic in user code on a speculative
// lane never crashes the process — the group squashes and its inputs
// replay sequentially — so the only unrecoverable site is the sequential
// path itself, which RunChecked converts to an error.

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Breaker is a sliding-window abort/panic-rate circuit breaker gating
// speculation — telemetry.Breaker, the engine's core.Admission policy. Share
// one across runs via Options.Breaker: once the failure rate over its window
// crosses the trip threshold, speculation is disabled for a cooldown (runs
// execute conventionally at zero extra cost), then re-probed with a few
// speculative runs before being trusted again.
type Breaker = telemetry.Breaker

// BreakerConfig configures a Breaker's window, trip threshold and recovery
// behaviour; zero fields pick documented defaults. The Now field injects
// the clock for tests.
type BreakerConfig = telemetry.BreakerConfig

// BreakerState is a breaker's position: closed, half-open or open.
type BreakerState = telemetry.BreakerState

// The breaker positions, re-exported for callers inspecting State().
const (
	BreakerClosed   = telemetry.BreakerClosed
	BreakerHalfOpen = telemetry.BreakerHalfOpen
	BreakerOpen     = telemetry.BreakerOpen
)

// BreakerSnapshot is a breaker's exported state: position, trip/denial
// counts and the current windowed failure rate.
type BreakerSnapshot = telemetry.BreakerSnapshot

// NewBreaker returns a closed circuit breaker with the given
// configuration, ready to attach to Options.Breaker.
func NewBreaker(cfg BreakerConfig) *Breaker { return telemetry.NewBreaker(cfg) }

// PanicError is the error RunChecked (and StartStream's join) reports when
// user code panicked with no safe fallback left: the original panic value
// plus the stack captured during the unwind, preserving the panic site.
type PanicError = core.PanicError

// RunChecked executes synchronously like Run, but converts a user-code
// panic on the sequential path into a *PanicError instead of letting it
// propagate. Speculative-lane panics are contained either way and counted
// in RunStats.PanickedGroups.
func (sd *StateDependence[I, S, O]) RunChecked() ([]O, S, RunStats, error) {
	return sd.dep().RunChecked(sd.inputs, sd.initial, sd.coreOptions())
}

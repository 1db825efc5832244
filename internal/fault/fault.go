// Package fault is a deterministic fault injector for the STATS runtime's
// chaos experiments: seeded injection of auxiliary-code panics, garbage
// speculative states, compute panics and delays at configured rates.
//
// The point of chaos testing a speculative engine is the paper's own
// correctness claim turned adversarial: §3.1 promises that a failed
// speculation never changes the program's output, because validation
// squashes it and the inputs replay conventionally. The injector
// manufactures failures the validation layer was never told about —
// panics mid-group, speculative states that are pure garbage, lanes that
// stall past their deadline — and the chaos harness checks the promise
// holds: no crash, byte-identical output versus the sequential baseline,
// and failure counters that reconcile across stats, the event log and a
// live /metrics scrape.
//
// Determinism: every injection decision is a pure function of the
// injector's seed, the site, and that site's call ordinal, via a
// splitmix64-style hash, so a fixed seed fixes which ordinals fire at each
// site. Auxiliary code and compute both run on pool workers whose
// interleaving varies run to run (and a group squashed before its task
// started never calls its aux), so which group observes a given ordinal,
// and how many ordinals a run consumes, may vary — the chaos harness's
// assertions (no crash, output equality) are scheduling-independent by
// design.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site identifies an injection point.
type Site int

// The injection sites the injector can arm.
const (
	// SiteAux is auxiliary-code execution: an injection panics instead
	// of producing a speculative state.
	SiteAux Site = iota
	// SiteGarbage is auxiliary-code output: an injection replaces the
	// speculative state with caller-supplied garbage, so validation must
	// reject it.
	SiteGarbage
	// SiteCompute is a compute invocation: an injection panics inside
	// user compute code on whatever lane runs it.
	SiteCompute
	// SiteDelay is a compute invocation stall: an injection sleeps the
	// lane, for exercising Options.GroupTimeout.
	SiteDelay

	numSites // sentinel, keep last
)

// String returns the site's stable name.
func (s Site) String() string {
	switch s {
	case SiteAux:
		return "aux-panic"
	case SiteGarbage:
		return "garbage-state"
	case SiteCompute:
		return "compute-panic"
	case SiteDelay:
		return "delay"
	}
	return "unknown"
}

// InjectedPanic is the value injected panics carry, so tests and recovery
// paths can tell manufactured faults from real bugs.
type InjectedPanic struct {
	// Site is the injection point that fired.
	Site Site
	// Call is the site's call ordinal (0-based) at which it fired.
	Call uint64
}

// Error renders the panic value; InjectedPanic intentionally implements
// error so a *core.PanicError wrapping it stays inspectable.
func (p InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected %s at call %d", p.Site, p.Call)
}

// Config sets the per-site injection rates, each the probability in [0, 1]
// that one call at that site is injected.
type Config struct {
	// Seed fixes every injection decision.
	Seed uint64
	// AuxPanicRate injects panics into auxiliary-code execution.
	AuxPanicRate float64
	// GarbageRate replaces speculative states with garbage.
	GarbageRate float64
	// ComputePanicRate injects panics into compute invocations.
	ComputePanicRate float64
	// DelayRate stalls compute invocations by Delay.
	DelayRate float64
	// Delay is the stall duration for SiteDelay injections
	// (default 5ms when DelayRate > 0).
	Delay time.Duration
}

// Injector makes seeded injection decisions and counts what it did. Safe
// for concurrent use; the per-site ordinals are atomics.
type Injector struct {
	cfg   Config
	calls [numSites]atomic.Uint64
	fired [numSites]atomic.Uint64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// mix is a splitmix64-style finalizer: the decision hash for one
// (seed, site, ordinal) triple.
func mix(seed uint64, site Site, call uint64) uint64 {
	x := seed ^ (uint64(site)+1)*0x9E3779B97F4A7C15 ^ call*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// decide consumes one call ordinal at the site and reports whether it
// injects at the given rate, returning the ordinal used.
func (in *Injector) decide(site Site, rate float64) (uint64, bool) {
	call := in.calls[site].Add(1) - 1
	if rate <= 0 {
		return call, false
	}
	h := mix(in.cfg.Seed, site, call)
	// Top 53 bits → uniform float in [0, 1).
	u := float64(h>>11) / float64(1<<53)
	if u < rate {
		in.fired[site].Add(1)
		return call, true
	}
	return call, false
}

// Counts reports, per site, how many calls were seen and how many were
// injected.
func (in *Injector) Counts() map[Site][2]uint64 {
	out := make(map[Site][2]uint64, int(numSites))
	for s := Site(0); s < numSites; s++ {
		out[s] = [2]uint64{in.calls[s].Load(), in.fired[s].Load()}
	}
	return out
}

// Fired returns how many injections the site performed.
func (in *Injector) Fired(s Site) uint64 { return in.fired[s].Load() }

// WrapAux arms SiteAux and SiteGarbage around an auxiliary function:
// an aux-panic injection panics with InjectedPanic instead of running
// aux; a garbage injection runs aux and then discards its result for
// garbage(result). Aux runs on the group lanes, so the decisions replay
// exactly per call ordinal under a fixed seed, not per group.
func WrapAux[R, S, I any](in *Injector, aux func(R, S, []I) S, garbage func(S) S) func(R, S, []I) S {
	return func(r R, init S, recent []I) S {
		if call, fire := in.decide(SiteAux, in.cfg.AuxPanicRate); fire {
			panic(InjectedPanic{Site: SiteAux, Call: call})
		}
		out := aux(r, init, recent)
		if call, fire := in.decide(SiteGarbage, in.cfg.GarbageRate); fire {
			_ = call
			return garbage(out)
		}
		return out
	}
}

// WrapCompute arms SiteCompute and SiteDelay around a compute function
// with per-call (ordinal) decisions: every invocation — speculative,
// redo or fallback — rolls the dice. Use WrapComputeOnce for chaos runs
// that must preserve output, since an ordinal-keyed panic can fire on the
// sequential path, where no containment is possible.
func WrapCompute[R, I, S, O any](in *Injector, compute func(R, I, S) (O, S)) func(R, I, S) (O, S) {
	return func(r R, input I, s S) (O, S) {
		if _, fire := in.decide(SiteDelay, in.cfg.DelayRate); fire {
			time.Sleep(in.cfg.Delay)
		}
		if call, fire := in.decide(SiteCompute, in.cfg.ComputePanicRate); fire {
			panic(InjectedPanic{Site: SiteCompute, Call: call})
		}
		return compute(r, input, s)
	}
}

// WrapComputeOnce arms SiteCompute with transient-fault semantics: the
// injection decision is keyed on the input (via key, at ComputePanicRate),
// and at most ONE selected input per wrapper panics, only the first time it
// is computed — the speculative lane dies, every replay of the same input
// succeeds. This is the mode chaos runs use to prove output preservation.
//
// Both "once" constraints are load-bearing for the no-crash guarantee, not
// just flavor. Per-input once: a fault that re-fires on the sequential
// replay is a deterministic application bug, which no runtime can mask.
// Per-wrapper once: the first fire is the run's first fault, so it is
// guaranteed to land on a speculative lane (where the engine contains it);
// a SECOND selected input could first be computed on the fallback path of
// the abort the first fault caused — its lane may have been squashed before
// reaching it — and a fallback-path panic has no containment left. Arm one
// fresh wrapper per engine run to get one transient fault per run.
// SiteDelay injections stay per-call and uncapped (delays are benign
// everywhere).
func WrapComputeOnce[R, I, S, O any](in *Injector, compute func(R, I, S) (O, S), key func(I) uint64) func(R, I, S) (O, S) {
	var spent atomic.Bool
	var once sync.Map // key(input) -> struct{}, set when its fault has fired
	return func(r R, input I, s S) (O, S) {
		if _, fire := in.decide(SiteDelay, in.cfg.DelayRate); fire {
			time.Sleep(in.cfg.Delay)
		}
		if rate := in.cfg.ComputePanicRate; rate > 0 {
			k := key(input)
			h := mix(in.cfg.Seed, SiteCompute, k)
			if float64(h>>11)/float64(1<<53) < rate {
				if _, fired := once.LoadOrStore(k, struct{}{}); !fired && spent.CompareAndSwap(false, true) {
					in.calls[SiteCompute].Add(1)
					in.fired[SiteCompute].Add(1)
					panic(InjectedPanic{Site: SiteCompute, Call: k})
				}
			}
		}
		return compute(r, input, s)
	}
}

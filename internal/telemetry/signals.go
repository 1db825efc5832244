// Rolling control signals: the windowed view of the speculation counters
// that the /signals endpoint, the Prometheus signal gauges, the /healthz
// verdict and the planned online adaptive controller all read. One
// Signals instance per observer is one source of truth — a Server serves
// the one it is handed and /healthz judges its reports — and the chaos
// campaign reconciles the raw window deltas byte-for-byte against
// core.Stats.
package telemetry

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// SignalsConfig sets the sliding window of the aggregator. Zero values
// pick the noted defaults.
type SignalsConfig struct {
	// Window is the sliding window deltas are computed over (default 5s).
	Window time.Duration
	// Now supplies the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Breaker, when set, has its snapshot attached to every report.
	Breaker *Breaker
}

// withDefaults fills zero fields.
func (c SignalsConfig) withDefaults() SignalsConfig {
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// signalCounters is one atomic reading of every instrument the signals
// cover: the event kinds' counters, the two numbers no kind backs, and the
// validation-latency buckets in full, so the window's quantiles come from
// bucket deltas, not lifetime totals.
type signalCounters struct {
	kinds                  obs.Counts
	specCommits, roundsSum int64
	valLat                 obs.HistogramSnapshot
}

// readSignalCounters samples the observer.
func readSignalCounters(o *obs.Observer) signalCounters {
	return signalCounters{
		kinds:       o.Counts(),
		specCommits: o.SpecCommittedInputs.Value(),
		roundsSum:   o.RoundsPerGroup.Sum(),
		valLat:      o.ValidationLatencyNS.Snapshot(),
	}
}

// signalSample is one timestamped reading.
type signalSample struct {
	t time.Time
	c signalCounters
}

// maxSignalSamples bounds the sample ring; beyond it the samples are
// collapsed pairwise (halving resolution, keeping window coverage).
const maxSignalSamples = 512

// SignalsReport is one windowed reading: the raw counter deltas over the
// window (reconcilable against core.Stats sums), the derived control
// rates, and the windowed validation-latency quantiles. It is the
// payload of the /signals endpoint and the stable input surface of the
// future adaptive controller.
type SignalsReport struct {
	// WindowSeconds is the sliding window the deltas cover.
	WindowSeconds float64 `json:"window_seconds"`

	// Raw deltas over the window. Validations is Matches + Aborts (every
	// boundary resolves one way or the other) — an upper bound on the
	// validations that ran: an abort caused by a failed lane (contained
	// panic, deadline) ends the boundary before any validation starts, so
	// it is an abort without a latency observation.
	Validations         int64 `json:"validations"`
	Matches             int64 `json:"matches"`
	Mismatches          int64 `json:"mismatches"`
	Aborts              int64 `json:"aborts"`
	Redos               int64 `json:"redos"`
	FallbackInputs      int64 `json:"fallback_inputs"`
	SpecCommittedInputs int64 `json:"spec_committed_inputs"`
	PanickedGroups      int64 `json:"panicked_groups"`
	TimedOutGroups      int64 `json:"timed_out_groups"`
	BreakerDeniedRuns   int64 `json:"breaker_denied_runs"`
	GroupsFinished      int64 `json:"groups_finished"`
	LocalHits           int64 `json:"local_hits"`
	ReservationCommits  int64 `json:"reservation_commits"`
	ReservationRounds   int64 `json:"reservation_rounds"`
	ConventionalInputs  int64 `json:"conventional_inputs"`
	LaneCPUCommittedNS  int64 `json:"lane_cpu_committed_ns"`
	LaneCPUWastedNS     int64 `json:"lane_cpu_wasted_ns"`

	// Derived control rates (zero when their denominator is empty).
	// MismatchRate, AbortRate and RedoRate are per validation;
	// FailureRate is contained panics + deadline squashes per finished
	// group; FallbackRate is fallback inputs per resolved input;
	// CommitsPerRound is the reservations protocol's commit throughput;
	// WastedWorkRatio is wasted lane CPU over all lane CPU — the price of
	// speculation.
	MismatchRate    float64 `json:"mismatch_rate"`
	AbortRate       float64 `json:"abort_rate"`
	RedoRate        float64 `json:"redo_rate"`
	FailureRate     float64 `json:"failure_rate"`
	FallbackRate    float64 `json:"fallback_rate"`
	CommitsPerRound float64 `json:"commits_per_round"`
	WastedWorkRatio float64 `json:"wasted_work_ratio"`

	// Windowed validation-latency quantile estimates (log-bucket upper
	// bounds, nanoseconds).
	ValidationP50NS int64 `json:"validation_p50_ns"`
	ValidationP99NS int64 `json:"validation_p99_ns"`

	// TracerDropped is the tracer's lifetime ring-eviction total, a
	// companion signal for trusting (or not) event-derived views.
	TracerDropped int64 `json:"tracer_dropped"`
	// Breaker is the speculation circuit breaker's snapshot, present
	// when the config attached one.
	Breaker *BreakerSnapshot `json:"breaker,omitempty"`
}

// Signals computes windowed control signals over an Observer's
// instruments. Each Report call takes a fresh counter sample, prunes
// samples older than the window, and reports the deltas between the
// oldest retained sample and now — so every rate recovers once a storm
// ages out of the window. Report is cheap (atomic counter reads plus one
// histogram copy) and safe for concurrent use.
type Signals struct {
	cfg SignalsConfig
	o   *obs.Observer

	mu      sync.Mutex
	samples []signalSample
	last    SignalsReport
}

// NewSignals builds a signals aggregator over o's instruments.
func NewSignals(o *obs.Observer, cfg SignalsConfig) *Signals {
	return &Signals{cfg: cfg.withDefaults(), o: o}
}

// Report samples the counters and returns the current windowed signals.
func (s *Signals) Report() SignalsReport {
	now := s.cfg.Now()
	cur := signalSample{t: now, c: readSignalCounters(s.o)}
	dropped := s.o.Tracer.Dropped()

	s.mu.Lock()
	defer s.mu.Unlock()
	// Prune to the window: keep every sample inside it plus the newest
	// sample at or before its left edge, which becomes the baseline — so
	// the deltas cover the whole window, and a storm ages out once no
	// retained sample straddles it.
	cutoff := now.Add(-s.cfg.Window)
	first := 0
	for first < len(s.samples)-1 && !s.samples[first+1].t.After(cutoff) {
		first++
	}
	if first > 0 {
		s.samples = append(s.samples[:0], s.samples[first:]...)
	}
	base := cur
	if len(s.samples) > 0 {
		base = s.samples[0]
	}
	s.samples = append(s.samples, cur)
	if len(s.samples) > maxSignalSamples {
		// Collapse pairwise: keep every second sample.
		kept := s.samples[:0]
		for i := 0; i < len(s.samples); i += 2 {
			kept = append(kept, s.samples[i])
		}
		s.samples = kept
	}

	rep := computeSignals(s.cfg.Window, base.c, cur.c)
	rep.TracerDropped = dropped
	if s.cfg.Breaker != nil {
		snap := s.cfg.Breaker.Snapshot()
		rep.Breaker = &snap
	}
	s.last = rep
	return rep
}

// Last returns the most recent report without taking a new sample — the
// read path of the Prometheus signal gauges, which must not advance the
// window on every scrape line.
func (s *Signals) Last() SignalsReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// computeSignals derives a report from two counter readings.
func computeSignals(window time.Duration, base, cur signalCounters) SignalsReport {
	d := func(a, b int64) int64 {
		if b < a {
			return 0 // counter reset (new observer behind the same model)
		}
		return b - a
	}
	k := func(kind obs.EventKind) int64 { return d(base.kinds[kind], cur.kinds[kind]) }
	rep := SignalsReport{
		WindowSeconds:       window.Seconds(),
		Matches:             k(obs.EvValidateMatch),
		Mismatches:          k(obs.EvValidateMismatch),
		Aborts:              k(obs.EvAbort),
		Redos:               k(obs.EvRedo),
		FallbackInputs:      k(obs.EvFallback),
		SpecCommittedInputs: d(base.specCommits, cur.specCommits),
		PanickedGroups:      k(obs.EvPanic),
		TimedOutGroups:      k(obs.EvGroupTimeout),
		BreakerDeniedRuns:   k(obs.EvBreakerDenied),
		GroupsFinished:      k(obs.EvGroupFinish),
		LocalHits:           k(obs.EvLocalHit),
		ReservationCommits:  k(obs.EvCommit),
		ReservationRounds:   d(base.roundsSum, cur.roundsSum),
		ConventionalInputs:  k(obs.EvConventional),
		LaneCPUCommittedNS:  k(obs.EvLaneCPUCommitted),
		LaneCPUWastedNS:     k(obs.EvLaneCPUWasted),
	}
	rep.Validations = rep.Matches + rep.Aborts
	if rep.Validations > 0 {
		rep.MismatchRate = float64(rep.Mismatches) / float64(rep.Validations)
		rep.AbortRate = float64(rep.Aborts) / float64(rep.Validations)
		rep.RedoRate = float64(rep.Redos) / float64(rep.Validations)
	}
	if rep.GroupsFinished > 0 {
		rep.FailureRate = float64(rep.PanickedGroups+rep.TimedOutGroups) / float64(rep.GroupsFinished)
	}
	if den := rep.FallbackInputs + rep.SpecCommittedInputs; den > 0 {
		rep.FallbackRate = float64(rep.FallbackInputs) / float64(den)
	}
	if rep.ReservationRounds > 0 {
		rep.CommitsPerRound = float64(rep.ReservationCommits) / float64(rep.ReservationRounds)
	}
	if den := rep.LaneCPUCommittedNS + rep.LaneCPUWastedNS; den > 0 {
		rep.WastedWorkRatio = float64(rep.LaneCPUWastedNS) / float64(den)
	}
	lat := cur.valLat.Sub(base.valLat)
	rep.ValidationP50NS = lat.Quantile(0.5)
	rep.ValidationP99NS = lat.Quantile(0.99)
	return rep
}

// ppm scales a fraction to parts per million, the integer encoding the
// registry's int64-only gauges use for rates.
func ppm(f float64) int64 {
	return int64(f*1e6 + 0.5)
}

// Register exposes the signal rates as function-backed Prometheus gauges
// reading the last computed report (the server's sampling loop keeps it
// fresh; gauges never advance the window themselves). Fractions are
// scaled to parts per million, commits/round to thousandths.
func (s *Signals) Register(reg *obs.Registry) {
	g := func(name, help string, fn func(SignalsReport) int64) {
		reg.GaugeFunc(name, func() int64 { return fn(s.Last()) })
		reg.SetHelp(name, help)
	}
	g("signals_window_validations", "boundary resolutions in the signals window",
		func(r SignalsReport) int64 { return r.Validations })
	g("signals_abort_rate_ppm", "windowed aborts per validation (ppm)",
		func(r SignalsReport) int64 { return ppm(r.AbortRate) })
	g("signals_mismatch_rate_ppm", "windowed first-try rejections per validation (ppm)",
		func(r SignalsReport) int64 { return ppm(r.MismatchRate) })
	g("signals_redo_rate_ppm", "windowed re-executions per validation (ppm)",
		func(r SignalsReport) int64 { return ppm(r.RedoRate) })
	g("signals_failure_rate_ppm", "windowed contained panics + deadline squashes per finished group (ppm)",
		func(r SignalsReport) int64 { return ppm(r.FailureRate) })
	g("signals_fallback_rate_ppm", "windowed fallback inputs per resolved input (ppm)",
		func(r SignalsReport) int64 { return ppm(r.FallbackRate) })
	g("signals_commits_per_round_milli", "windowed reservation commits per round (thousandths)",
		func(r SignalsReport) int64 { return int64(r.CommitsPerRound*1e3 + 0.5) })
	g("signals_wasted_work_ratio_ppm", "windowed wasted lane CPU over all lane CPU (ppm)",
		func(r SignalsReport) int64 { return ppm(r.WastedWorkRatio) })
	g("signals_validation_p50_ns", "windowed validation-latency p50 estimate (ns)",
		func(r SignalsReport) int64 { return r.ValidationP50NS })
	g("signals_validation_p99_ns", "windowed validation-latency p99 estimate (ns)",
		func(r SignalsReport) int64 { return r.ValidationP99NS })
	g("signals_lane_cpu_committed_ns", "windowed committed lane CPU (ns)",
		func(r SignalsReport) int64 { return r.LaneCPUCommittedNS })
	g("signals_lane_cpu_wasted_ns", "windowed wasted lane CPU (ns)",
		func(r SignalsReport) int64 { return r.LaneCPUWastedNS })
}

package stats

import (
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Runtime owns the worker pool the paper's runtime shares across all state
// dependences ("an efficient thread pool implementation (shared with all
// state dependences) to minimize thread creation overhead", §3.4), plus
// the always-on observability layer: a lock-free speculation event tracer
// and a metrics registry that every attached dependence reports into.
// Attach binds a StateDependence to it; unattached dependences create a
// private pool per run and report nowhere.
type Runtime struct {
	pool *pool.Pool
	obs  *obs.Observer

	mu        sync.Mutex
	telemetry *telemetry.Server
	signals   *telemetry.Signals
}

// TraceEvent is one record of the runtime's speculation event log (see
// repro/internal/obs for the kinds and field semantics).
type TraceEvent = obs.Event

// Metrics is the runtime's metrics registry: atomically-updated counters,
// gauges and log-scale histograms with a plain-text exposition
// (WriteText/Text).
type Metrics = obs.Registry

// NewRuntime starts a shared runtime with the given worker width. Tracing
// and metrics are always on — the tracer's bounded rings and atomic
// instruments are cheap enough to leave enabled (see internal/obs) — and
// cover every dependence attached with Attach.
func NewRuntime(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	o := obs.NewObserver(workers+1, 0)
	p := pool.New(workers)
	p.SetObserver(o)
	sig := telemetry.NewSignals(o, telemetry.SignalsConfig{})
	sig.Report() // baseline sample: the first report covers activity since here
	return &Runtime{pool: p, obs: o, signals: sig}
}

// Workers returns the pool width.
func (rt *Runtime) Workers() int { return rt.pool.Workers() }

// Trace returns a time-ordered snapshot of the runtime's speculation event
// log: group lifecycles, auxiliary-state production, validation outcomes,
// redos, aborts, squashes, and the scheduler's steal/local dispatches.
// Safe to call while runs are in flight; the log is bounded, so a
// long-lived runtime retains the most recent events per lane.
func (rt *Runtime) Trace() []TraceEvent { return rt.obs.Tracer.Snapshot() }

// Metrics returns the runtime's live metrics registry.
func (rt *Runtime) Metrics() *Metrics { return rt.obs.Reg }

// Observer returns the runtime's observability sink, for callers that
// need the typed instruments (histogram quantiles, dropped-event counts)
// rather than the rendered views.
func (rt *Runtime) Observer() *obs.Observer { return rt.obs }

// SchedulerMetrics is a snapshot of the shared pool's work-stealing
// dispatch counters, aggregated across every attached dependence.
type SchedulerMetrics struct {
	// Submitted counts tasks accepted by the scheduler; Executed counts
	// completed tasks.
	Submitted, Executed int64
	// Steals counts cross-worker dispatches; LocalHits counts tasks taken
	// from the owning worker's local deque (the contention-free path).
	Steals, LocalHits int64
	// QueueDepthPeak is the highest per-worker queue depth observed;
	// QueueDepths is the instantaneous depth of each worker's deque.
	QueueDepthPeak int64
	QueueDepths    []int
}

// Scheduler returns the runtime's current scheduler metrics.
func (rt *Runtime) Scheduler() SchedulerMetrics {
	m := rt.pool.Metrics()
	return SchedulerMetrics{
		Submitted:      m.Submitted,
		Executed:       m.Executed,
		Steals:         m.Steals,
		LocalHits:      m.LocalHits,
		QueueDepthPeak: m.QueueDepthPeak,
		QueueDepths:    rt.pool.QueueDepths(),
	}
}

// SignalsReport is one windowed view of the runtime's speculation
// control signals: abort/mismatch/redo rates, fallback and failure
// rates, steal fraction, commits per round, the wasted-work ratio and
// windowed validation-latency quantiles. See
// repro/internal/telemetry.SignalsReport for field semantics.
type SignalsReport = telemetry.SignalsReport

// Signals returns a rolling control-signals report over the runtime's
// recent activity. The aggregator's baseline is the runtime's creation,
// and each call advances the same sliding window — the one a served
// runtime's /signals and /healthz read — so rates reflect what happened
// since older samples aged out, not lifetime totals. Safe to call while
// runs are in flight.
func (rt *Runtime) Signals() SignalsReport {
	return rt.signals.Report()
}

// Telemetry is the runtime's HTTP telemetry server: /metrics (Prometheus
// text), /healthz (windowed speculation health), /signals (rolling
// control signals, SSE-streamable), /events (live SSE stream), /trace
// (Chrome trace_event JSON) and /spans (causal span trees). See
// repro/internal/telemetry.
type Telemetry = telemetry.Server

// Serve starts the runtime's telemetry server on addr (e.g. ":8080", or
// "127.0.0.1:0" for an ephemeral port — read the bound address from the
// returned server). The server serves the runtime's own signals window:
// /signals, /healthz and Signals read one aggregator whose baseline is the
// runtime's creation, so they are the same report. The server stays up
// until Close is called on it or on the runtime; every endpoint reads
// through the observability layer's lock-free snapshot paths, so serving
// never slows an attached dependence's run.
func (rt *Runtime) Serve(addr string) (*Telemetry, error) {
	srv := telemetry.NewServer(telemetry.Config{Signals: rt.signals})
	if err := srv.Start(addr); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	if rt.telemetry != nil {
		rt.telemetry.Close()
	}
	rt.telemetry = srv
	rt.mu.Unlock()
	return srv, nil
}

// ServeHandler returns the telemetry surface as an http.Handler for
// embedding into an existing server or mux (no listener is started; the
// handler lives as long as the runtime). Like Serve, it serves the
// runtime's own signals window.
func (rt *Runtime) ServeHandler() http.Handler {
	return telemetry.NewServer(telemetry.Config{Signals: rt.signals}).Handler()
}

// Close drains and stops the pool, and shuts down the telemetry server if
// Serve started one. Dependences attached to a closed runtime fall back
// to inline execution.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	srv := rt.telemetry
	rt.telemetry = nil
	rt.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	rt.pool.Close()
}

// Attach binds sd to the runtime's shared pool and observability layer
// for its next run. It returns sd for chaining.
func Attach[I, S, O any](rt *Runtime, sd *StateDependence[I, S, O]) *StateDependence[I, S, O] {
	sd.sharedPool = rt.pool
	sd.observer = rt.obs
	return sd
}

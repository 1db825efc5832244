package telemetry

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config configures a telemetry Server.
type Config struct {
	// Signals is the windowed aggregator the server serves: /signals
	// reports it, /healthz judges it, and its observer and breaker are
	// the ones the other endpoints expose. Required.
	Signals *Signals
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// The server's cadences.
const (
	// sseInterval is the poll interval of the /events and /signals streams.
	sseInterval = 200 * time.Millisecond
	// sseMaxBatch bounds the events per /events message; a poll that finds
	// more drops the oldest and counts them.
	sseMaxBatch = 4096
	// sseWriteTimeout bounds each stream write: a client that stops reading
	// is disconnected once it passes, instead of pinning its handler
	// goroutine on a blocked write (telemetry_sse_disconnects_total).
	sseWriteTimeout = 5 * time.Second
	// minSampleInterval floors the background sampling cadence, an eighth
	// of the signals window, which keeps the window populated between
	// sparse scrapes.
	minSampleInterval = 100 * time.Millisecond
)

// Server is the embeddable HTTP telemetry surface over one Signals
// aggregator and the observer it reads:
//
//	GET /metrics  Prometheus text exposition of the metrics registry
//	GET /healthz  windowed speculation health (200 ok/degraded, 503 aborting)
//	GET /signals  rolling control signals (JSON; ?stream=1 for SSE)
//	GET /events   live SSE stream of the speculation event log
//	GET /trace    Chrome trace_event JSON flight-recorder dump
//	GET /spans    causal span trees reconstructed from the event log
//	GET /debug/pprof/...  (when Config.EnablePprof)
//
// Every endpoint reads the tracer and registry through their lock-free
// snapshot paths; a scrape or an attached stream client never blocks
// Tracer.Emit. Use Start/Close for a standalone listener, or Handler to
// embed the surface in an existing mux.
type Server struct {
	sig    *Signals
	pprof  bool
	folder *SpanFolder

	// The cadences, from the constants above; in-package tests shorten
	// them before serving.
	tick, writeTimeout, sample time.Duration

	// scrapes counts /metrics requests; sseDropped counts events
	// dropped on the way to slow SSE clients; sseDisconnects counts
	// clients cut off by the per-write deadline. All are registered in
	// the observer's registry so the surface observes itself.
	scrapes        *obs.Counter
	sseDropped     *obs.Counter
	sseDisconnects *obs.Counter
	sseClients     *obs.Gauge

	mu   sync.Mutex
	srv  *http.Server
	ln   net.Listener
	done chan struct{} // closed on Close; unblocks SSE loops and the sampler
}

// NewServer builds a Server over cfg.Signals and registers the breaker's
// instruments, the signal gauges and its own in the observer's registry.
// It panics on a nil aggregator — the server has nothing else to serve.
func NewServer(cfg Config) *Server {
	sig := cfg.Signals
	if sig == nil {
		panic("telemetry: Config.Signals is nil")
	}
	reg := sig.o.Reg
	s := &Server{
		sig:            sig,
		pprof:          cfg.EnablePprof,
		folder:         NewSpanFolder(sig.o.Tracer),
		tick:           sseInterval,
		writeTimeout:   sseWriteTimeout,
		sample:         max(sig.cfg.Window/8, minSampleInterval),
		scrapes:        reg.Counter("telemetry_scrapes_total"),
		sseDropped:     reg.Counter("telemetry_sse_dropped_events_total"),
		sseDisconnects: reg.Counter("telemetry_sse_disconnects_total"),
		sseClients:     reg.Gauge("telemetry_sse_clients"),
		done:           make(chan struct{}),
	}
	reg.SetHelp("telemetry_scrapes_total", "GET /metrics requests served")
	reg.SetHelp("telemetry_sse_dropped_events_total", "events dropped before reaching slow /events clients")
	reg.SetHelp("telemetry_sse_disconnects_total", "/events clients disconnected by the per-write deadline")
	reg.SetHelp("telemetry_sse_clients", "currently attached /events clients")
	if b := sig.cfg.Breaker; b != nil {
		b.Register(reg)
	}
	sig.Register(reg)
	return s
}

// Handler returns the telemetry surface as an http.Handler, for embedding
// into an existing server or mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/signals", s.handleSignals)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/spans", s.handleSpans)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Start listens on addr (e.g. ":8080", "127.0.0.1:0") and serves the
// telemetry surface until Close. It also starts the background health
// sampler. Start returns once the listener is bound; use Addr for the
// bound address.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	s.mu.Lock()
	if s.srv != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("telemetry: server already started")
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	s.mu.Unlock()
	go s.srv.Serve(ln)
	go s.sampleLoop()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns "http://<addr>" ("" before Start).
func (s *Server) URL() string {
	a := s.Addr()
	if a == "" {
		return ""
	}
	return "http://" + a
}

// Close gracefully shuts the server down: the health sampler and attached
// SSE streams stop, in-flight requests get a short drain window, then the
// listener closes. Safe to call multiple times and on a never-started
// server.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// sampleLoop keeps the health window populated between scrapes.
func (s *Server) sampleLoop() {
	t := time.NewTicker(s.sample)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			// One Report advances the shared window for both /signals
			// and /healthz, and keeps the signal gauges' Last fresh; the
			// folder poll keeps /spans O(new events) on the next request.
			s.sig.Report()
			s.folder.Poll()
		}
	}
}

// handleIndex lists the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `STATS runtime telemetry
  /metrics  Prometheus text exposition
  /healthz  windowed speculation health
  /signals  rolling control signals (?stream=1 for SSE)
  /events   live event stream (SSE; ?once=1 for a single snapshot)
  /trace    Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev)
  /spans    causal span trees of the speculation lifecycle
`)
	if s.pprof {
		fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
	}
}

// handleMetrics serves the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.sig.o.Reg.WriteText(w)
}

// handleHealthz serves the health verdict: HTTP 200 for ok and degraded
// (degraded is a warning, not an outage), 503 for aborting.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rep := judge(s.sig.Report())
	w.Header().Set("Content-Type", "application/json")
	if rep.State == "aborting" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

// handleSignals serves the rolling control signals. Without parameters it
// returns one JSON SignalsReport; with ?stream=1 it becomes an SSE stream
// sending a fresh report every poll interval — the feed an external
// controller or dashboard tails instead of scraping /metrics.
func (s *Server) handleSignals(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") == "" {
		rep := s.sig.Report()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return
	}

	s.stream(w, r, func() (any, bool) { return s.sig.Report(), false })
}

// stream serves one server-sent-events client: it opens the stream and
// flushes the headers at once (a client attaching before the first message
// must see the stream open immediately), then sends next's message — a
// "data: " line of JSON and a blank line — every poll interval until the
// client leaves, the server closes, or next reports the message was the last.
// A nil message sends nothing this tick. Every write has a deadline: a client
// that stops reading eventually blocks our writes on its full TCP window, and
// without one that would pin this handler goroutine until the process exits;
// the client is disconnected instead and counted. SetWriteDeadline is
// best-effort — httptest recorders and exotic wrappers don't support it, and
// an unsupported deadline just means unbounded writes on that transport.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, next func() (msg any, last bool)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.sseClients.Add(1)
	defer s.sseClients.Add(-1)

	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(s.tick)
	defer tick.Stop()
	for {
		msg, last := next()
		if msg != nil {
			_ = rc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
			_, err := fmt.Fprint(w, "data: ")
			if err == nil {
				err = enc.Encode(msg)
			}
			if err == nil {
				_, err = fmt.Fprint(w, "\n")
			}
			if err != nil {
				s.sseDisconnects.Inc()
				return
			}
			flusher.Flush()
		}
		if last {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-tick.C:
		}
	}
}

// sseEvent is the wire form of one event on the /events stream.
type sseEvent struct {
	// TS is nanoseconds since the tracer epoch; Lane, Group and Arg are
	// the event's raw fields; Kind is the event kind's stable name.
	TS    int64  `json:"ts"`
	Lane  int16  `json:"lane"`
	Kind  string `json:"kind"`
	Group int32  `json:"group"`
	Arg   int64  `json:"arg"`
}

// sseBatch is one SSE data message: the events published since the last
// message and how many the client lost.
type sseBatch struct {
	// Events are the batch's events in time order.
	Events []sseEvent `json:"events"`
	// Dropped counts the events this client lost since the last message:
	// overwritten in the rings before it read them, or the oldest of a
	// poll that found more than one batch holds.
	Dropped int64 `json:"dropped,omitempty"`
}

// handleEvents streams the speculation event log as server-sent events:
// one JSON batch per poll interval holding the events published since the
// previous batch. Each client reads through its own obs.Cursor
// (Tracer.Poll, the lock-free incremental reader SpanFolder uses), so
// every published event reaches it exactly once, whatever its stamp, and
// attached clients never block the emitting engine. A client slower than
// the event rate loses oldest-first, counted in the batch's dropped field
// and in telemetry_sse_dropped_events_total; events the rings had already
// evicted when the client attached are the tracer's loss, not the client's.
// Query parameters: once=1 sends a single batch and closes; since=<ns>
// sends only events stamped after ns.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	once := r.URL.Query().Get("once") != ""
	var since int64 = -1 << 62
	if v := r.URL.Query().Get("since"); v != "" {
		fmt.Sscanf(v, "%d", &since)
	}
	var (
		cur      obs.Cursor
		buf      []obs.Event
		attached bool
	)
	s.stream(w, r, func() (any, bool) {
		var lost int64
		buf, lost = s.sig.o.Tracer.Poll(&cur, buf[:0])
		if !attached {
			lost, attached = 0, true
		}
		slices.SortStableFunc(buf, func(a, b obs.Event) int { return cmp.Compare(a.TS, b.TS) })
		batch := sseBatch{Dropped: lost}
		for _, e := range buf {
			if e.TS > since {
				batch.Events = append(batch.Events, sseEvent{
					TS: e.TS, Lane: e.Lane, Kind: e.Kind.String(),
					Group: e.Group, Arg: e.Arg,
				})
			}
		}
		if n := len(batch.Events); n > sseMaxBatch {
			batch.Dropped += int64(n - sseMaxBatch)
			batch.Events = batch.Events[n-sseMaxBatch:]
		}
		s.sseDropped.Add(batch.Dropped)
		if len(batch.Events) == 0 && batch.Dropped == 0 && !once {
			return nil, false
		}
		return batch, once
	})
}

// handleTrace serves the current event log as Chrome trace_event JSON —
// an on-demand flight-recorder dump of the retained rings, through the
// same fold /spans is served from.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="stats-trace.json"`)
	_ = ChromeTrace(w, s.sig.o.Tracer.Snapshot())
}

// handleSpans serves the reconstructed span trees as JSON. The server's
// incremental SpanFolder backs the view: each request folds only the
// events emitted since the last one, instead of re-deriving the whole
// forest from a full ring snapshot.
func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	doc := s.folder.Doc()
	doc.Emitted = s.sig.o.Tracer.Emitted()
	doc.Dropped = s.sig.o.Tracer.Dropped()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

package telemetry

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

// startEngine runs a real workload through the core engine, emitting into o:
// one run, on four lanes, per token sent on step. The engine's load is at
// most the work its callers ask for, not whatever fits in their time, so the
// test costs no more on one CPU than on several. stop waits for the run in
// flight and drops the tokens not yet taken; step holds up to engineSteps.
func startEngine(t *testing.T, o *obs.Observer) (step chan<- struct{}, stop func()) {
	t.Helper()
	w, err := registry.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	steps, done := make(chan struct{}, engineSteps), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := uint64(1); ; seed++ {
			select {
			case <-done:
				return
			case <-steps:
			}
			w.RunSTATS(seed, workload.SmallSize, workload.SpecOptions{
				UseAux: true, GroupSize: 4, Window: 2,
				RedoMax: 2, Rollback: 2, Workers: 4, Obs: o,
			})
		}
	}()
	return steps, func() {
		close(done)
		wg.Wait()
	}
}

// engineSteps bounds the engine runs TestServerUnderEngineLoad's clients ask
// for — one per request and one per /events batch, 74 in all — with room to
// spare, so that asking never blocks a client.
const engineSteps = 128

// newTestServer builds a Server over a fresh aggregator of o (fast SSE
// cadence for tests) and an httptest front end over its Handler.
func newTestServer(t *testing.T, o *obs.Observer) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Signals: NewSignals(o, SignalsConfig{}), EnablePprof: true})
	s.tick = 10 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestServerUnderEngineLoad scrapes /metrics, streams /events, and pulls
// /trace and /spans concurrently while real engine runs emit — the race
// detector guards the lock-free snapshot paths. Every request asks the engine
// for one more run before it is sent, and the /events client one more after
// each batch, so the server is read while the engine writes.
func TestServerUnderEngineLoad(t *testing.T) {
	o := obs.NewObserver(8, 1<<12)
	step, stopEngine := startEngine(t, o)
	defer stopEngine()
	_, ts := newTestServer(t, o)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	get := func(path string) (*http.Response, error) {
		step <- struct{}{}
		return http.Get(ts.URL + path)
	}

	// Concurrent /metrics scrapers, each response must parse.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := get("/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- errStatus("/metrics", resp.StatusCode)
					return
				}
				if _, err := ParsePromText(string(body)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// /trace and /spans pullers: valid JSON every time.
	for _, path := range []string{"/trace", "/spans"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := get(path)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- errStatus(path, resp.StatusCode)
					return
				}
				var v any
				if err := json.Unmarshal(body, &v); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// /healthz: must answer (state content depends on the run).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			resp, err := get("/healthz")
			if err != nil {
				errs <- err
				return
			}
			var rep HealthReport
			err = json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if rep.State == "" {
				errs <- errStatus("/healthz empty state", resp.StatusCode)
				return
			}
		}
	}()

	// An SSE client streaming live batches during the run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := get("/events")
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			errs <- errStatus("/events content-type "+ct, resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		batches := 0
		for sc.Scan() && batches < 3 {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var b sseBatch
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &b); err != nil {
				errs <- err
				return
			}
			if len(b.Events) == 0 && b.Dropped == 0 {
				errs <- errStatus("/events empty batch", 0)
				return
			}
			batches++
			step <- struct{}{} // new events for the next batch
		}
		if batches < 3 {
			errs <- errStatus("/events stream ended early", 0)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// errStatus builds an error for an unexpected response.
func errStatus(what string, code int) error {
	return fmt.Errorf("%s: unexpected response (status %d)", what, code)
}

// TestServerSpansRoundTrip runs a quickstart-scale workload to completion,
// fetches /spans, and checks the JSON document reconstructs a coherent
// forest: groups present, every complete group carrying an exec span, and
// the rendered tree mentioning each group.
func TestServerSpansRoundTrip(t *testing.T) {
	o := obs.NewObserver(8, 1<<14)
	w, err := registry.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	_, st := w.RunSTATS(1, workload.NativeSize, workload.SpecOptions{
		UseAux: true, GroupSize: 8, Window: 2,
		RedoMax: 2, Rollback: 2, Workers: 4, Obs: o,
	})
	if st.Groups == 0 {
		t.Fatal("engine run produced no groups")
	}
	_, ts := newTestServer(t, o)

	resp, err := http.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc SpanDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) == 0 {
		t.Fatal("/spans returned no groups for a completed run")
	}
	if doc.Emitted == 0 {
		t.Error("/spans did not carry the tracer's emitted total")
	}
	complete := 0
	for _, g := range doc.Groups {
		if g.Partial {
			continue
		}
		complete++
		hasExec := false
		for _, c := range g.Children {
			if c.Kind == SpanExec && c.DurNS >= 0 && c.EndNS >= c.StartNS {
				hasExec = true
			}
		}
		if !hasExec {
			t.Errorf("complete group %d has no exec span", g.Group)
		}
	}
	if doc.Dropped == 0 && complete != len(doc.Groups) {
		t.Errorf("no ring loss but %d/%d groups partial", len(doc.Groups)-complete, len(doc.Groups))
	}
	rendered := SpanString(&doc)
	if !strings.Contains(rendered, "g000") || !strings.Contains(rendered, "validate") {
		t.Errorf("rendered span view missing expected structure:\n%s", rendered)
	}
}

// TestServerMetricsParseCompliance scrapes a populated registry and runs
// the exposition through the structural parser: TYPE-before-samples,
// cumulative complete buckets, +Inf == _count.
func TestServerMetricsParseCompliance(t *testing.T) {
	o := obs.NewObserver(2, 256)
	noteN(o, obs.EvValidateMatch, 7)
	o.ValidationLatencyNS.Observe(100)
	o.ValidationLatencyNS.Observe(90000)
	o.Tracer.Emit(0, obs.EvGroupStart, 0, 0)
	_, ts := newTestServer(t, o)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", got)
	}
	body, _ := io.ReadAll(resp.Body)
	m, err := ParsePromText(string(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	if v, ok := m.Value("stats_validation_match_total"); !ok || v != 7 {
		t.Errorf("stats_validation_match_total = %v (present=%v), want 7", v, ok)
	}
	if v, ok := m.Value("trace_events_emitted_total"); !ok || v < 1 {
		t.Errorf("trace_events_emitted_total = %v (present=%v), want >= 1", v, ok)
	}
	if typ := m.Types["stats_validation_latency_ns"]; typ != "histogram" {
		t.Errorf("stats_validation_latency_ns TYPE = %q, want histogram", typ)
	}
	if m.Help["stats_aborts_total"] == "" {
		t.Error("stats_aborts_total has no HELP line")
	}
	// The server counts its own scrapes.
	if _, err := http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	m2, err := ParsePromText(string(body2))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m2.Value("telemetry_scrapes_total"); v < 3 {
		t.Errorf("telemetry_scrapes_total = %v, want >= 3", v)
	}
}

// TestServerEventsOnce exercises the curl-friendly single-batch mode used
// by the serve-smoke target: one data message, then the handler returns.
func TestServerEventsOnce(t *testing.T) {
	o := obs.NewObserver(2, 256)
	o.Tracer.Emit(0, obs.EvGroupStart, 0, 0)
	o.Tracer.Emit(0, obs.EvGroupFinish, 0, 5)
	_, ts := newTestServer(t, o)

	client := http.Client{Timeout: 5 * time.Second}
	once := func() sseBatch {
		t.Helper()
		resp, err := client.Get(ts.URL + "/events?once=1")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body) // must terminate without the timeout
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(body)
		if !strings.HasPrefix(text, "data: ") {
			t.Fatalf("once-mode response is not one SSE message: %q", text)
		}
		var b sseBatch
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(text), "data: ")), &b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b := once(); len(b.Events) != 2 || b.Events[0].Kind != obs.EvGroupStart.String() {
		t.Errorf("once batch = %+v, want the two emitted events", b)
	}

	// Events the ring evicted before the client attached are the tracer's
	// loss, not the client's: the batch is the retained log, with no drop.
	for i := 0; i < 300; i++ {
		o.Tracer.Emit(0, obs.EvGroupStart, int32(i), 0)
	}
	if b := once(); len(b.Events) != 256 || b.Dropped != 0 {
		t.Errorf("once batch over a wrapped ring: %d events, %d dropped; want 256, 0", len(b.Events), b.Dropped)
	}
	if n := o.Reg.Counter("telemetry_sse_dropped_events_total").Value(); n != 0 {
		t.Errorf("telemetry_sse_dropped_events_total = %d after reading a wrapped ring, want 0", n)
	}
}

// TestEventsDeliversEachEventOnce: /events reads each client's cursor, not
// a stamp filter, so an event published after a batch arrives even when
// its stamp ties the batch's last one (lanes share phase readings) or
// precedes it (another lane published late), nothing arrives twice, and
// each batch is in stamp order.
func TestEventsDeliversEachEventOnce(t *testing.T) {
	o := obs.NewObserver(2, 256)
	_, ts := newTestServer(t, o)
	const stamp = 1000
	o.Tracer.EmitAt(0, stamp, obs.EvGroupStart, 0, 0)

	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	next := batches(t, resp.Body)
	if b := next(); len(b.Events) != 1 || b.Events[0].TS != stamp {
		t.Fatalf("first batch = %+v, want the one event at %d", b, stamp)
	}

	o.Tracer.EmitAt(1, stamp, obs.EvGroupFinish, 0, 1)
	o.Tracer.EmitAt(1, stamp-1, obs.EvValidateMatch, 1, 0)
	o.Tracer.EmitAt(0, stamp+1, obs.EvGroupStart, 2, 0) // the end marker
	seen := map[string]int{}
	for seen[obs.EvGroupStart.String()] == 0 {
		b := next()
		if !slices.IsSortedFunc(b.Events, func(x, y sseEvent) int { return cmp.Compare(x.TS, y.TS) }) {
			t.Errorf("batch not in stamp order: %+v", b.Events)
		}
		for _, e := range b.Events {
			seen[e.Kind]++
		}
	}
	want := map[string]int{
		obs.EvGroupFinish.String():   1,
		obs.EvValidateMatch.String(): 1,
		obs.EvGroupStart.String():    1,
	}
	if !maps.Equal(seen, want) {
		t.Errorf("events after the first batch = %v, want each once: %v", seen, want)
	}
}

// TestEventsCountsRingWrapLoss: events the rings overwrite before an
// attached client reads them are counted, in the batches' dropped and in
// telemetry_sse_dropped_events_total — every event is delivered or counted.
func TestEventsCountsRingWrapLoss(t *testing.T) {
	o := obs.NewObserver(2, 256)
	_, ts := newTestServer(t, o)
	o.Tracer.Emit(0, obs.EvGroupStart, 0, 0)
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	next := batches(t, resp.Body)
	next()

	const burst = 600 // more than lane 0's ring holds
	for i := 0; i < burst; i++ {
		o.Tracer.Emit(0, obs.EvGroupFinish, int32(i), 0)
	}
	o.Tracer.Emit(1, obs.EvGroupStart, 1, 0) // the end marker, on a ring of its own
	var delivered, dropped int64
	for marker := false; !marker; {
		b := next()
		dropped += b.Dropped
		for _, e := range b.Events {
			if e.Kind == obs.EvGroupStart.String() {
				marker = true
			} else {
				delivered++
			}
		}
	}
	if delivered+dropped != burst || dropped == 0 {
		t.Errorf("burst of %d: %d delivered + %d dropped", burst, delivered, dropped)
	}
	if n := o.Reg.Counter("telemetry_sse_dropped_events_total").Value(); n != dropped {
		t.Errorf("telemetry_sse_dropped_events_total = %d, the batches dropped %d", n, dropped)
	}
}

// batches reads an /events stream one data message at a time.
func batches(t *testing.T, body io.Reader) func() sseBatch {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	return func() sseBatch {
		t.Helper()
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var b sseBatch
				if err := json.Unmarshal([]byte(line), &b); err != nil {
					t.Fatal(err)
				}
				return b
			}
		}
		t.Fatalf("stream ended: %v", sc.Err())
		return sseBatch{}
	}
}

// TestServerStartClose exercises the standalone listener lifecycle: bind
// an ephemeral port, serve a scrape, shut down (an attached SSE stream
// must be released), and tolerate double Close.
func TestServerStartClose(t *testing.T) {
	o := obs.NewObserver(2, 256)
	s := NewServer(Config{Signals: NewSignals(o, SignalsConfig{})})
	s.tick = 10 * time.Millisecond
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" || s.URL() == "" {
		t.Fatal("started server reports no address")
	}
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Error("double Start did not fail")
	}

	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Attach a streaming client, then Close: the stream must end.
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, err := http.Get(s.URL() + "/events")
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	time.Sleep(50 * time.Millisecond) // let the stream attach
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream not released by Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServerHealthzStatusCodes: aborting is 503, ok is 200.
func TestServerHealthzStatusCodes(t *testing.T) {
	o := obs.NewObserver(1, 64)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sig := NewSignals(o, SignalsConfig{Window: 10 * time.Second, Now: clk.now})
	s := NewServer(Config{Signals: sig})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("ok health served %d, want 200", resp.StatusCode)
	}

	sig.Report() // baseline sample
	clk.advance(time.Second)
	noteN(o, obs.EvValidateMatch, 10)
	noteN(o, obs.EvAbort, 10) // 50% abort rate: aborting
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rep HealthReport
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rep.State != "aborting" {
		t.Errorf("abort storm served %d/%q, want 503/aborting", resp.StatusCode, rep.State)
	}
}

// TestServerPprofGate: the profile endpoints exist only behind the flag.
func TestServerPprofGate(t *testing.T) {
	o := obs.NewObserver(1, 64)
	on := NewServer(Config{Signals: NewSignals(o, SignalsConfig{}), EnablePprof: true})
	off := NewServer(Config{Signals: NewSignals(obs.NewObserver(1, 64), SignalsConfig{})})
	tsOn := httptest.NewServer(on.Handler())
	tsOff := httptest.NewServer(off.Handler())
	defer tsOn.Close()
	defer tsOff.Close()
	defer on.Close()
	defer off.Close()

	resp, err := http.Get(tsOn.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof enabled served %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(tsOff.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled served %d, want 404", resp.StatusCode)
	}
}

func TestEventsStalledClientDisconnected(t *testing.T) {
	// A client that opens /events and then stops reading must be cut off
	// by the per-write deadline, not pin the handler goroutine forever on
	// a blocked write.
	o := obs.NewObserver(4, 1<<14)
	s := NewServer(Config{Signals: NewSignals(o, SignalsConfig{})})
	s.tick, s.writeTimeout = 2*time.Millisecond, 250*time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Keep the tracer full so every poll ships a near-max batch and the
	// stalled connection's buffers fill fast.
	stopEmit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopEmit:
				return
			default:
			}
			o.Tracer.Emit(i&3, obs.EvGroupStart, int32(i), int64(i))
		}
	}()
	defer func() { close(stopEmit); wg.Wait() }()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /events HTTP/1.1\r\nHost: stall\r\n\r\n")
	// Read just the response header, then stall without ever draining
	// the body. The server keeps writing batches until the socket
	// buffers fill and its writes block on our unread window.
	hdr := make([]byte, 512)
	if _, err := conn.Read(hdr); err != nil {
		t.Fatal(err)
	}

	disconnects := o.Reg.Counter("telemetry_sse_disconnects_total")
	deadlineHit := time.Now().Add(30 * time.Second)
	for disconnects.Value() == 0 {
		if time.Now().After(deadlineHit) {
			t.Fatalf("stalled client never disconnected (clients=%d)",
				o.Reg.Gauge("telemetry_sse_clients").Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The handler returned: its client gauge must drain back to zero.
	for o.Reg.Gauge("telemetry_sse_clients").Value() != 0 {
		if time.Now().After(deadlineHit) {
			t.Fatal("sse client gauge never drained after disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHealthzReportsBreaker(t *testing.T) {
	o := obs.NewObserver(1, 64)
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 5; i++ {
		b.Allow()
		b.Record(true)
	}
	s := NewServer(Config{Signals: NewSignals(o, SignalsConfig{Breaker: b})})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Breaker == nil {
		t.Fatal("healthz missing breaker section")
	}
	if rep.Breaker.State != "open" || rep.Breaker.Trips != 1 {
		t.Fatalf("breaker section %+v", rep.Breaker)
	}

	// The breaker's instruments are registered: /metrics must expose them.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(body), "breaker_trips_total 1") {
		t.Fatalf("metrics missing breaker_trips_total:\n%s", body)
	}
}

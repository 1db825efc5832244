package stats_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/stats"
)

// serveDep runs a small chain through rt so the telemetry has content.
func serveDep(t *testing.T, rt *stats.Runtime) {
	t.Helper()
	inputs := make([]int, 32)
	for i := range inputs {
		inputs[i] = i
	}
	sd := stats.NewStateDependence(inputs, 0,
		func(r *stats.Rand, in, s int) (int, int) { return s + in, s + in })
	sd.SetAuxiliary(func(r *stats.Rand, init int, recent []int) int { return init })
	sd.Configure(stats.Options{UseAux: true, GroupSize: 4, Window: 2, RedoMax: 1, Rollback: 1, Workers: 2})
	stats.Attach(rt, sd)
	sd.Run()
}

// TestRuntimeServe boots the runtime's telemetry server on an ephemeral
// port, runs a dependence, scrapes /metrics and /spans, and checks
// Runtime.Close tears the server down.
func TestRuntimeServe(t *testing.T) {
	rt := stats.NewRuntime(2)
	srv, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDep(t, rt)

	for _, path := range []string{"/metrics", "/healthz", "/spans", "/trace"} {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}

	url := srv.URL()
	rt.Close() // must also shut the telemetry server down
	if _, err := http.Get(url + "/metrics"); err == nil {
		t.Error("telemetry server still up after Runtime.Close")
	}
}

// TestRuntimeServeHandler embeds the telemetry surface in a caller-owned
// mux, without starting a listener.
func TestRuntimeServeHandler(t *testing.T) {
	rt := stats.NewRuntime(2)
	defer rt.Close()
	serveDep(t, rt)

	mux := http.NewServeMux()
	mux.Handle("/telemetry/", http.StripPrefix("/telemetry", rt.ServeHandler()))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/telemetry/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "stats_groups_started_total") {
		t.Errorf("embedded handler scrape failed: status %d body %q", resp.StatusCode, body)
	}
}

// TestRuntimeServeSharesTheSignalsWindow: a served runtime's /healthz,
// /signals and Signals read one window, so a run that aborts shows in all
// three at once, with the run's own abort count.
func TestRuntimeServeSharesTheSignalsWindow(t *testing.T) {
	rt := stats.NewRuntime(2)
	defer rt.Close()
	srv, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sd := stats.NewStateDependence(make([]int, 32), 0,
		func(r *stats.Rand, in, s int) (int, int) { return s + 1, s + 1 })
	sd.SetAuxiliary(func(r *stats.Rand, init int, recent []int) int { return init })
	sd.SetStateOps(nil, func(spec int, originals []int) bool { return false })
	sd.Configure(stats.Options{UseAux: true, GroupSize: 4, Window: 2, RedoMax: 0, Rollback: 1, Workers: 2})
	stats.Attach(rt, sd)
	_, _, st := sd.Run()
	if st.Aborts == 0 {
		t.Fatalf("a dependence whose match always fails did not abort: %+v", st)
	}

	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz after an aborted run served %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL() + "/signals")
	if err != nil {
		t.Fatal(err)
	}
	var served stats.SignalsReport
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if served.Aborts != int64(st.Aborts) {
		t.Errorf("/signals aborts = %d, the run's Stats.Aborts = %d", served.Aborts, st.Aborts)
	}
	if own := rt.Signals(); own.Aborts != served.Aborts {
		t.Errorf("Runtime.Signals aborts = %d, /signals served %d", own.Aborts, served.Aborts)
	}
}

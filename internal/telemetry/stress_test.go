package telemetry

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestServerConcurrentStress hammers every concurrent surface of the
// profiler at once, under both protocols with fault injection on: a
// live engine loop emits events and bumps counters while goroutines
// call Signals().Report()/Last() directly, SSE clients stream
// /signals?stream=1, and plain HTTP clients poll /signals, /spans,
// /healthz and /metrics. Run under -race this is the data-race proof
// for the always-on profiler; without -race it is still a liveness
// smoke (nothing deadlocks, every reader sees well-formed output).
func TestServerConcurrentStress(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto core.Protocol
	}{
		{"aux", core.ProtocolAux},
		{"reservations", core.ProtocolReservations},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ob := obs.NewObserver(5, 1<<12)
			br := NewBreaker(BreakerConfig{
				Window: time.Hour, MinRuns: 8, TripRate: 0.95, Cooldown: time.Millisecond,
			})
			sig := NewSignals(ob, SignalsConfig{Breaker: br})
			srv := NewServer(Config{Signals: sig})
			srv.tick, srv.sample = 5*time.Millisecond, 5*time.Millisecond
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatalf("start: %v", err)
			}
			defer srv.Close()

			const dur = 600 * time.Millisecond
			deadline := time.Now().Add(dur)
			stop := make(chan struct{})
			var wg sync.WaitGroup

			// Engine loop: real runs with injected aux panics and garbage
			// speculative states, so the unhappy-path counters and lane-CPU
			// attribution are all moving while the readers read.
			wg.Add(1)
			go func() {
				defer wg.Done()
				in := fault.New(fault.Config{
					Seed: 7, AuxPanicRate: 0.1, GarbageRate: 0.2,
				})
				aux := fault.WrapAux(in, propAux, propGarbage)
				inputs := make([]int, 40)
				for i := range inputs {
					inputs[i] = i%7 + 1
				}
				for seed := uint64(0); time.Now().Before(deadline); seed++ {
					d := core.New(propCompute, aux, propOps())
					d.Run(inputs, propState{}, core.Options{
						UseAux: true, Protocol: tc.proto,
						GroupSize: 5, Window: 3, // short window: real mismatches
						RedoMax: 1, Rollback: 2, Workers: 4,
						Seed: seed, Obs: ob, Breaker: br,
					})
				}
				close(stop)
			}()

			// Direct API readers: concurrent Report() (advances the window)
			// and Last() (the gauge read path) against the live engine.
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						rep := sig.Report()
						if rep.Aborts < 0 || rep.WastedWorkRatio < 0 || rep.WastedWorkRatio > 1 {
							t.Errorf("torn report: %+v", rep)
							return
						}
						sig.Last()
					}
				}()
			}

			// SSE clients: stream /signals?stream=1 and check each frame is
			// a well-formed data line.
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL()+"/signals?stream=1", nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						return // deadline raced the dial; fine
					}
					defer resp.Body.Close()
					sc := bufio.NewScanner(resp.Body)
					frames := 0
					for sc.Scan() {
						line := sc.Text()
						if line == "" {
							continue
						}
						if !strings.HasPrefix(line, "data: ") ||
							!strings.Contains(line, `"window_seconds"`) {
							t.Errorf("malformed SSE frame: %q", line)
							return
						}
						frames++
					}
					if frames == 0 {
						t.Error("SSE client saw no frames before the deadline")
					}
				}()
			}

			// Plain HTTP pollers across the other live endpoints.
			for _, path := range []string{"/signals", "/spans", "/healthz", "/metrics"} {
				path := path
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						resp, err := http.Get(srv.URL() + path)
						if err != nil {
							t.Errorf("GET %s: %v", path, err)
							return
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						// /healthz legitimately serves 503 while the fault
						// storm keeps the verdict degraded or aborting.
						ok := resp.StatusCode == http.StatusOK ||
							(path == "/healthz" && resp.StatusCode == http.StatusServiceUnavailable)
						if !ok || len(body) == 0 {
							t.Errorf("GET %s: status %d, %d bytes", path, resp.StatusCode, len(body))
							return
						}
					}
				}()
			}

			wg.Wait()

			// The campaign must have actually exercised speculation.
			if rep := sig.Report(); rep.Validations == 0 && rep.ReservationRounds == 0 {
				t.Errorf("stress run drove no speculation at all: %+v", rep)
			}
		})
	}
}

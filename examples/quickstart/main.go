// Quickstart: parallelize a nondeterministic chain with a state dependence.
//
// The program estimates a drifting signal from a stream of noisy readings
// with a tiny randomized filter — the Figure 4 pattern: each reading
// updates an estimate (the state) that the next reading consumes, which
// serializes the chain. The auxiliary code rebuilds the estimate from just
// the last few readings, letting the runtime overlap groups of readings.
//
// Run with:
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -trace quickstart.json   # + Chrome trace
//	go run ./examples/quickstart -serve :8080 -loops 100  # + live telemetry
//
// With -trace, the run goes through a stats.Runtime (whose observability
// layer is always on) and the recorded speculation event log is exported
// as Chrome trace_event JSON — open chrome://tracing or
// https://ui.perfetto.dev and load the file to see the overlapped groups,
// validations and scheduler dispatches on a timeline.
//
// With -serve, the runtime's telemetry server comes up at the given
// address while the chain is (re)processed -loops times: curl /metrics
// for the Prometheus exposition, /healthz for the windowed speculation
// health, /spans for the causal span trees, /events for a live SSE
// stream, /trace for a Chrome-trace dump of the retained rings.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/telemetry"
	"repro/stats"
)

// reading is one input: a noisy observation of the signal.
type reading struct {
	Value float64
}

// estimate is the state: the filter's current belief.
type estimate struct {
	Mean float64
}

func main() {
	tracePath := flag.String("trace", "", "write the observed speculation event log as Chrome trace_event JSON")
	serve := flag.String("serve", "", "serve HTTP telemetry at this address (e.g. :8080) while the run repeats")
	loops := flag.Int("loops", 1, "with -serve, how many times to process the chain")
	flag.Parse()

	// A fixed input stream: a slow sine drift plus noise baked in at
	// generation time (the input is the same for every run; only the
	// filter's randomness varies).
	const n = 64
	inputs := make([]reading, n)
	for i := range inputs {
		inputs[i] = reading{Value: math.Sin(0.1*float64(i)) + 0.05*math.Cos(7.3*float64(i))}
	}

	// computeOutput: fold the reading into the estimate with a jittered
	// gain — the nondeterminism.
	compute := func(r *stats.Rand, in reading, s estimate) (float64, estimate) {
		gain := 0.5 + 0.1*r.Norm()
		if gain < 0.1 {
			gain = 0.1
		}
		s.Mean += gain * (in.Value - s.Mean)
		return s.Mean, s
	}

	// Auxiliary code: re-estimate from the recent window only. The
	// filter forgets quickly, so a handful of readings reproduce the
	// state.
	aux := func(r *stats.Rand, init estimate, recent []reading) estimate {
		s := init
		if len(recent) > 0 {
			s.Mean = recent[0].Value
		}
		for _, in := range recent {
			s.Mean += 0.5 * (in.Value - s.Mean)
		}
		return s
	}

	// Acceptance: the speculative estimate must sit within the spread of
	// the original (re-executed) estimates — the paper's triangulating
	// doesSpecStateMatchAny.
	match := func(spec estimate, originals []estimate) bool {
		for i := range originals {
			di := math.Abs(spec.Mean - originals[i].Mean)
			for j := range originals {
				if i != j && di <= math.Abs(originals[j].Mean-originals[i].Mean)+0.05 {
					return true
				}
			}
		}
		return len(originals) == 1 && math.Abs(spec.Mean-originals[0].Mean) < 0.05
	}
	newDep := func(seed uint64) *stats.StateDependence[reading, estimate, float64] {
		sd := stats.NewStateDependence(inputs, estimate{}, compute)
		sd.SetAuxiliary(aux)
		sd.SetStateOps(nil, match)
		// Hash-first prefilter (stats.FingerprintFunc): the digest must
		// be equal whenever match would accept. This acceptance is a
		// tolerance band over a continuous mean, so no numeric feature
		// survives an accepted pair — the digest covers only the state's
		// fixed structure and always falls through to match. A dependence
		// comparing discrete features (counts, labels) would hash those
		// and skip most deep comparisons in one probe.
		sd.SetFingerprint(func(estimate) uint64 { return 1 })
		sd.Configure(stats.Options{
			UseAux:    true,
			GroupSize: 8,
			Window:    4,
			RedoMax:   2,
			Rollback:  3,
			Workers:   8,
			Seed:      seed,
		})
		return sd
	}

	// With -serve, process the chain -loops times through a Runtime with
	// its telemetry server up, so the live endpoints have a run to show.
	if *serve != "" {
		rt := stats.NewRuntime(8)
		defer rt.Close()
		srv, err := rt.Serve(*serve)
		if err != nil {
			panic(err)
		}
		fmt.Printf("telemetry at %s (try /metrics, /healthz, /spans, /events?once=1)\n", srv.URL())
		for i := 0; i < *loops; i++ {
			sd := stats.Attach(rt, newDep(42+uint64(i)))
			_, _, st := sd.Run()
			if i == *loops-1 {
				fmt.Printf("loop %d: %d inputs, %d speculative commits, %d aborts\n",
					i+1, st.Inputs, st.SpeculativeCommits, st.Aborts)
			}
		}
		return
	}

	sd := newDep(42)

	// With -trace, run through a shared Runtime so the observability
	// layer records the speculation event log.
	var rt *stats.Runtime
	if *tracePath != "" {
		rt = stats.NewRuntime(8)
		defer rt.Close()
		stats.Attach(rt, sd)
	}

	if err := sd.Start(); err != nil {
		panic(err)
	}
	outputs, final, st := sd.Join()

	if rt != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			panic(err)
		}
		if err := telemetry.ChromeTrace(f, rt.Trace()); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("chrome trace with %d events written to %s (load in chrome://tracing)\n",
			len(rt.Trace()), *tracePath)
	}

	fmt.Printf("processed %d readings in %d groups\n", st.Inputs, st.Groups)
	fmt.Printf("speculative commits: %d inputs, matches: %d, redos: %d, aborts: %d\n",
		st.SpeculativeCommits, st.Matches, st.Redos, st.Aborts)
	fmt.Printf("final estimate: %.4f (last output %.4f)\n", final.Mean, outputs[len(outputs)-1])

	// Compare with the conventional run: same semantics, same quality
	// band, but serialized.
	conv := stats.NewStateDependence(inputs, estimate{}, compute)
	conv.Configure(stats.Options{Seed: 43})
	convOut, _, _ := conv.Run()
	var diff float64
	for i := range outputs {
		diff += math.Abs(outputs[i] - convOut[i])
	}
	fmt.Printf("mean |difference| vs conventional run: %.4f (both are acceptable outputs of the nondeterministic program)\n",
		diff/float64(len(outputs)))
}

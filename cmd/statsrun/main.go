// Command statsrun executes one benchmark reproduction, conventionally or
// through the STATS runtime, and reports its speculation statistics and
// output quality (distance from the §4.2 oracle). With -export it writes
// the benchmark's native inputs as JSON instead: the synthetic substitutes
// for the paper's PARSEC inputs, fixed per (workload, size, variant) so
// exports are reproducible artifacts. A flag value it cannot run — -size or
// -group below 1, a negative -workers, -window, -redo, -rollback or -repeat,
// an unknown -workload or -protocol — exits 2 naming the value, before
// anything runs. -protocol reservations speculates with or without -aux:
// reservation rounds run no auxiliary code.
//
// Usage:
//
//	statsrun -workload bodytrack -size 32 -aux -group 8 -window 3 -redo 2 -rollback 2 -workers 8
//	statsrun -workload swaptions -protocol reservations   # deterministic reservations
//	statsrun -workload canneal            # the statically rejected benchmark
//	statsrun -workload swaptions -aux -serve :8080 -repeat 0   # serve telemetry, run forever
//	statsrun -list
//	statsrun -export -workload bodytrack -size 32         # native inputs as JSON
//	statsrun -export -workload facedet -size 32 -bad      # §4.6 variant
//	statsrun -export -workload swaptions -size 34 -summary # one-line summary
//
// With -serve the run executes with the observability layer attached and
// an HTTP telemetry server up at the given address: /metrics (Prometheus
// text), /healthz (windowed speculation health), /signals (rolling
// control signals; ?stream=1 for SSE), /events (live SSE stream),
// /trace (Chrome trace_event JSON), /spans (causal span trees), and
// with -pprof the net/http/pprof profiles. -repeat re-runs the
// workload N times (0 = until interrupted) so there is a live run to
// watch.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inputgen"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

func main() {
	name := flag.String("workload", "bodytrack", "benchmark name")
	list := flag.Bool("list", false, "list benchmarks and exit")
	size := flag.Int("size", workload.NativeSize, "input size (workload units)")
	seed := flag.Uint64("seed", 1, "run seed (the nondeterminism)")
	aux := flag.Bool("aux", false, "satisfy the state dependence with auxiliary code (-protocol reservations speculates without it)")
	group := flag.Int("group", 8, "input group cardinality")
	window := flag.Int("window", 2, "auxiliary-code input window")
	redo := flag.Int("redo", 2, "max original-producer re-executions")
	rollback := flag.Int("rollback", 2, "inputs to go back per re-execution")
	workers := flag.Int("workers", 8, "runtime worker-pool width")
	protocol := flag.String("protocol", "aux", "speculation protocol: aux (auxiliary code + validation, with -aux) or reservations (deterministic reserve/check/commit rounds, no auxiliary code)")
	serve := flag.String("serve", "", "serve HTTP telemetry at this address (e.g. :8080) during the run")
	repeat := flag.Int("repeat", 1, "with -serve, how many times to run the workload (0 = until interrupted)")
	pprofFlag := flag.Bool("pprof", false, "with -serve, also mount net/http/pprof under /debug/pprof/")
	export := flag.Bool("export", false, "write the benchmark's native inputs as JSON and exit")
	bad := flag.Bool("bad", false, "with -export, export the non-representative (§4.6) variant")
	summary := flag.Bool("summary", false, "with -export, print a one-line summary instead of JSON")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(registry.Names(), "\n"))
		return
	}
	switch {
	case *size < 1:
		refuse("-size %d: want at least 1", *size)
	case *workers < 0:
		refuse("-workers %d: want at least 0", *workers)
	case *group < 1:
		refuse("-group %d: want at least 1", *group)
	case *window < 0:
		refuse("-window %d: want at least 0", *window)
	case *redo < 0:
		refuse("-redo %d: want at least 0", *redo)
	case *rollback < 0:
		refuse("-rollback %d: want at least 0", *rollback)
	case *repeat < 0:
		refuse("-repeat %d: want at least 0", *repeat)
	}
	proto, ok := core.ParseProtocol(*protocol)
	if !ok {
		refuse("unknown protocol %q (want aux or reservations)", *protocol)
	}
	if *export {
		exportMain(*name, *size, *bad, *summary)
		return
	}

	w, err := registry.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsrun:", err)
		os.Exit(2)
	}
	d := w.Desc()
	fmt.Printf("benchmark: %s (state dependences: %d)\n", d.Name, d.NumDeps)
	speculate := *aux || proto == core.ProtocolReservations
	if !d.SupportsSTATS && speculate {
		fmt.Printf("STATS statically rejects this benchmark: %s\n", d.RejectReason)
		fmt.Println("falling back to conventional execution")
	}

	so := workload.SpecOptions{
		UseAux:    speculate,
		Protocol:  proto,
		GroupSize: *group,
		Window:    *window,
		RedoMax:   *redo,
		Rollback:  *rollback,
		Workers:   *workers,
	}
	if *serve != "" {
		serveMain(w, *size, *seed, so, *serve, *repeat, *pprofFlag)
		return
	}

	oracle := w.RunOracle(*size)

	start := time.Now()
	res, st := w.RunSTATS(*seed, *size, so)
	elapsed := time.Since(start)

	fmt.Printf("wall time:            %v\n", elapsed)
	fmt.Printf("inputs:               %d (groups: %d)\n", st.Inputs, st.Groups)
	fmt.Printf("speculative commits:  %d inputs\n", st.SpeculativeCommits)
	fmt.Printf("matches / redos:      %d / %d\n", st.Matches, st.Redos)
	fmt.Printf("aborts / squashed:    %d / %d inputs\n", st.Aborts, st.SquashedInputs)
	if proto == core.ProtocolReservations {
		fmt.Printf("rounds / conflicts:   %d / %d\n", st.Rounds, st.ReservationConflicts)
		fmt.Printf("conventional inputs:  %d\n", st.ConventionalInputs)
	}
	fmt.Printf("invocations (useful): %d (%d)\n", st.Invocations, st.UsefulInvocations)
	fmt.Printf("aux calls / inputs:   %d / %d\n", st.AuxCalls, st.AuxInputs)
	fmt.Printf("output distance from oracle (%s metric): %.6g\n", d.Name, res.Distance(oracle))

	// Reference: conventional run quality band.
	conv := w.RunOriginal(*seed, *size)
	fmt.Printf("conventional run distance (same seed):    %.6g\n", conv.Distance(oracle))
}

// refuse reports a flag value statsrun cannot run and exits 2.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "statsrun: "+format+"\n", args...)
	os.Exit(2)
}

// exportMain writes the workload's inputs at size as JSON, or their
// one-line summary.
func exportMain(name string, size int, bad, summary bool) {
	d, err := inputgen.Export(name, size, bad)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsrun:", err)
		os.Exit(2)
	}
	if summary {
		fmt.Println(d.Summary())
		return
	}
	if err := d.WriteJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "statsrun:", err)
		os.Exit(1)
	}
}

// serveMain runs the workload with the observability layer attached and a
// telemetry server up, re-running it repeat times (0 = forever) so the
// live endpoints have a run to expose. It exits on interrupt or when the
// repeats are done.
func serveMain(w workload.Workload, size int, seed uint64, so workload.SpecOptions, addr string, repeat int, withPprof bool) {
	ob := obs.NewObserver(so.Workers+1, 1<<14)
	so.Obs = ob
	srv := telemetry.NewServer(telemetry.Config{
		Signals:     telemetry.NewSignals(ob, telemetry.SignalsConfig{}),
		EnablePprof: withPprof,
	})
	if err := srv.Start(addr); err != nil {
		fmt.Fprintln(os.Stderr, "statsrun:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("telemetry at %s (endpoints: /metrics /healthz /signals /events /trace /spans)\n", srv.URL())

	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		for i := 0; repeat == 0 || i < repeat; i++ {
			start := time.Now()
			_, st := w.RunSTATS(seed+uint64(i), size, so)
			fmt.Printf("run %d: %v, %d inputs, %d speculative commits, %d aborts\n",
				i+1, time.Since(start).Round(time.Millisecond),
				st.Inputs, st.SpeculativeCommits, st.Aborts)
			select {
			case <-interrupted:
				return
			default:
			}
		}
	}()
	select {
	case <-runDone:
	case <-interrupted:
		fmt.Println("interrupted")
	}
}

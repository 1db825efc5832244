// Command statstrace renders the simulated schedule of a benchmark as an
// ASCII Gantt chart — the Figure 5 view: the serialized chain of the
// conventional execution versus the overlapped groups, auxiliary tasks and
// validations of the speculative one.
//
// Usage:
//
//	statstrace -workload bodytrack -mode seq -threads 8            # Fig. 5a
//	statstrace -workload bodytrack -mode parstats -threads 8 -aux  # Fig. 5b
//	statstrace -workload bodytrack -live                           # observed run
//	statstrace -workload bodytrack -live -chrome out.json          # + Chrome trace
//	statstrace -workload bodytrack -live -spans                    # + causal span trees
//	statstrace -from-spans spans.json                              # render a saved /spans doc
//
// By default the chart comes from the platform simulator. With -live the
// workload actually executes through the core engine with the
// observability layer attached, and the chart is the waterfall of the
// recorded speculation event log's span document — one bar per group
// with its phase chain, wasted-work share and abort cause, the scheduler
// lanes below on the same time axis, the critical path last; -chrome
// additionally exports the same spans as Chrome trace_event JSON (load it
// in chrome://tracing), and -spans additionally renders them as causal
// trees (one tree per speculation group: aux production, execution,
// validation with every redo, abort/squash/fallback marks). -from-spans
// renders tree and waterfall from a JSON document saved from a telemetry
// server's /spans endpoint, with no execution at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/taskgen"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

func main() {
	name := flag.String("workload", "bodytrack", "benchmark name")
	modeFlag := flag.String("mode", "parstats", "program shape: seq, original, seqstats, parstats")
	threads := flag.Int("threads", 8, "hardware threads")
	size := flag.Int("size", 32, "input chain length")
	aux := flag.Bool("aux", true, "satisfy the state dependence with auxiliary code")
	group := flag.Int("group", 8, "group cardinality")
	window := flag.Int("window", 2, "auxiliary input window")
	redo := flag.Int("redo", 2, "redo budget")
	rollback := flag.Int("rollback", 2, "rollback width")
	width := flag.Int("width", 100, "chart width in columns")
	rows := flag.Int("rows", 16, "max thread rows (group rows with -live or -from-spans)")
	power := flag.Bool("power", false, "also render the modeled power timeline")
	seed := flag.Uint64("seed", 7, "speculation-outcome seed")
	live := flag.Bool("live", false, "execute the workload for real and render the observed event log")
	chrome := flag.String("chrome", "", "with -live, also write the event log as Chrome trace_event JSON to this file")
	spans := flag.Bool("spans", false, "with -live, also render the reconstructed causal span trees")
	fromSpans := flag.String("from-spans", "", "render the span trees and waterfall of a /spans JSON document (no execution)")
	flag.Parse()

	if *fromSpans != "" {
		if err := renderSpanFile(*fromSpans, *width, *rows); err != nil {
			fmt.Fprintln(os.Stderr, "statstrace:", err)
			os.Exit(1)
		}
		return
	}

	w, err := registry.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statstrace:", err)
		os.Exit(2)
	}
	if *live {
		liveMain(w, *threads, *size, workload.SpecOptions{
			UseAux: *aux, GroupSize: *group, Window: *window,
			RedoMax: *redo, Rollback: *rollback, Workers: *threads,
		}, *seed, *width, *rows, *chrome, *spans)
		return
	}
	var mode taskgen.Mode
	switch *modeFlag {
	case "seq":
		mode = taskgen.Sequential
	case "original":
		mode = taskgen.Original
	case "seqstats":
		mode = taskgen.SeqSTATS
	case "parstats":
		mode = taskgen.ParSTATS
	default:
		fmt.Fprintf(os.Stderr, "statstrace: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	o := workload.SpecOptions{
		UseAux: *aux, GroupSize: *group, Window: *window,
		RedoMax: *redo, Rollback: *rollback,
	}
	m := w.CostModel(*size, o)
	g := taskgen.Build(mode, m, o, *seed)
	res := platform.Simulate(platform.Haswell28(false), g, *threads)

	fmt.Printf("%s, %s, %d inputs, %d threads\n", w.Desc().Name, mode, *size, *threads)
	trace.Render(os.Stdout, res, trace.Options{Width: *width, MaxThreads: *rows})
	if *power {
		trace.RenderPower(os.Stdout, res, energy.Default(), trace.PowerOptions{Width: *width})
	}
	fmt.Println(trace.Summary(res))
	th, busy := trace.CriticalThread(res)
	fmt.Printf("critical thread t%02d busy %.2f of %.2f\n", th, busy, res.Makespan)

	// The comparison baseline.
	seq := platform.Simulate(platform.Haswell28(false),
		taskgen.Build(taskgen.Sequential, m, workload.SpecOptions{}, *seed), 1)
	fmt.Printf("speedup vs single-threaded original: %.2fx\n", seq.Makespan/res.Makespan)
}

// liveMain runs the workload for real with the observability layer
// attached and renders the recorded event log instead of a simulation.
func liveMain(w workload.Workload, threads, size int, o workload.SpecOptions, seed uint64, width, rows int, chromePath string, spans bool) {
	d := w.Desc()
	if !d.SupportsSTATS {
		fmt.Fprintf(os.Stderr, "statstrace: %s does not support STATS: %s\n", d.Name, d.RejectReason)
		os.Exit(2)
	}
	ob := obs.NewObserver(threads+1, 1<<14)
	o.Obs = ob
	_, st := w.RunSTATS(seed, size, o)
	events := ob.Tracer.Snapshot()

	doc := telemetry.BuildSpans(events)
	doc.Emitted = ob.Tracer.Emitted()
	doc.Dropped = ob.Tracer.Dropped()

	fmt.Printf("%s, live, %d inputs, %d workers\n", d.Name, size, threads)
	telemetry.RenderWaterfall(os.Stdout, doc, telemetry.LaneTasks(events), width, rows)
	if doc.Dropped > 0 {
		fmt.Printf("(%d events evicted by the bounded rings)\n", doc.Dropped)
	}
	fmt.Printf("groups %d, speculative commits %d, redos %d, aborts %d\n",
		st.Groups, st.SpeculativeCommits, st.Redos, st.Aborts)
	fmt.Printf("validation latency p50 %dns p99 %dns over %d validations\n",
		ob.ValidationLatencyNS.Quantile(0.5), ob.ValidationLatencyNS.Quantile(0.99),
		ob.ValidationLatencyNS.Count())
	if spans {
		fmt.Println()
		telemetry.RenderSpans(os.Stdout, doc)
	}
	fmt.Println()
	fmt.Print(ob.Reg.Text())

	if chromePath != "" {
		if err := writeChromeTrace(chromePath, events); err != nil {
			fmt.Fprintln(os.Stderr, "statstrace:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (load in chrome://tracing)\n", chromePath)
	}
}

// renderSpanFile renders the tree and waterfall of a saved /spans JSON
// document.
func renderSpanFile(path string, width, rows int) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc telemetry.SpanDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("%s is not a /spans document: %w", path, err)
	}
	telemetry.RenderSpans(os.Stdout, &doc)
	fmt.Println()
	telemetry.RenderWaterfall(os.Stdout, &doc, nil, width, rows)
	return nil
}

// writeChromeTrace exports events as Chrome trace_event JSON at path.
func writeChromeTrace(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.ChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

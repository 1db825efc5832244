// Command bench is the repository's benchmark: it drives the public entry
// points of the runtime stack (stats, core, pool, rng, obs, telemetry and
// the six workload programs) with real goroutines, one call in flight at a
// time, checks every call's output, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root describes it; README.md
// in this directory defines the metrics, the workloads and how the layers
// are expected to move them.
//
//	bench -workload fine -seed 1 -seconds 15 -trace 0   # end-to-end metrics
//	bench -workload fine -seed 1 -seconds 15 -trace 1   # per-layer metrics and a span file
//	bench -compare a.jsonl b.jsonl                      # judge set b against set a
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Linux only: process CPU time is read with clock_gettime (cputime_linux.go)
// and the kernel release from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSetupRounds is how many times an untraced run sets the workload
// up; setup_s is their median, so one slow start does not decide it.
const defaultSetupRounds = 3

// Shares of -seconds a traced run spends on the workload's own
// repetitions and on each of the two dozen layer probes.
const (
	tracedMeasureShare = 0.5
	perProbeShare      = 0.01
)

// config is one benchmark run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// Not on the command line; tests change them. reps > 0 measures exactly
	// that many repetitions instead of -seconds, results is where the
	// traced pass writes <workload>.trace.json, setupRounds how many
	// set-ups setup_s is the median of.
	reps        int
	results     string
	setupRounds int
}

// report is the result line: exactly these keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out appends per run: the report plus what identifies the
// run and the host, and the diagnostics that are not part of the report.
type record struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Reps        int                `json:"reps"`
	Warmup      int                `json:"warmup_reps"`
	Settled     bool               `json:"settled"`
	Env         environment        `json:"env"`
	Report      report             `json:"report"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// environment records where a result was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"engine_workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Time       string `json:"time"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    engineWorkers(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
		Kernel:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	// Ask git only in a checkout that is a repository of its own, so the
	// lookup never walks out of the directory the benchmark runs in.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(out))
	}
	return env
}

func main() {
	cfg := config{results: filepath.Join("bench", "results"), setupRounds: defaultSetupRounds}
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: coarse, fine, abort, resv, observed or overhead")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the inputs and of the first run")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
	flag.StringVar(&cfg.out, "out", "", "append the run's full record to this JSON-lines file")
	flag.BoolVar(&compare, "compare", false, "compare two JSON-lines result sets: bench -compare a.jsonl b.jsonl")
	flag.Parse()
	cfg.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	rec, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	printRecord(rec)
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.Report)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run measures one workload, untraced or traced.
func run(cfg config) (*record, error) {
	def, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	calib := calibrate()
	tr := newTracer()

	rounds := cfg.setupRounds
	if cfg.trace {
		rounds = 1
	}
	var p *prepared
	var setups []float64
	for i := 0; i < rounds; i++ {
		if p != nil {
			p.shutdown()
		}
		t0 := time.Now()
		if p, err = prepare(def, cfg.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.shutdown()

	values := map[string]float64{}
	rec := &record{
		Workload: def.name, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Warmup: def.warmup, Env: currentEnvironment(), Diagnostics: map[string]float64{},
	}
	defs := endToEnd
	if !cfg.trace {
		samples, _ := p.measure(cfg.seed, budget, cfg.reps, false)
		rec.Reps = len(samples)
		rec.Settled = p.endToEndMetrics(values, samples, setups)
		harnessMetrics(rec.Diagnostics, samples)
		rec.Diagnostics["harness.calib_ms"] = max(calib, calibrate())
	} else {
		defs = perLayer
		plain, traced := p.measure(cfg.seed, time.Duration(tracedMeasureShare*float64(budget)), cfg.reps, true)
		rec.Reps = len(plain)
		harnessMetrics(values, plain)
		p.countMetrics(values)
		tr.metrics(values)
		seq, _ := bestDecile(column(plain, seqWall))
		values["workload.seq_us_per_input"] = seq * 1e6 / float64(p.inputsPerRep)
		untraced, _ := bestDecile(column(plain, specWall))
		withTrace, _ := bestDecile(column(traced, specWall))
		values["harness.trace_overhead_frac"] = 1 - untraced/withTrace

		pr := prober{perProbe: time.Duration(perProbeShare * float64(budget))}
		values["workload.inputgen_us_per_run"] = pr.perCall(1, func() {
			for _, c := range p.cases {
				c.gen()
			}
		}) / 1e3 / float64(len(p.cases))
		layerProbes(values, pr, cfg.seed)
		values["harness.calib_ms"] = max(calib, calibrate())
		if rec.TraceFile, err = tr.write(cfg.results, def.name); err != nil {
			return nil, err
		}
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return nil, err
	}
	rec.Report = report{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics}
	rec.Failures = p.failures
	return rec, nil
}

// printRecord prints the run for a reader: every metric by name with its
// unit, then the diagnostics and any failed checks.
func printRecord(rec *record) {
	mode, defs := "end-to-end, tracing off", endToEnd
	if rec.Trace {
		mode, defs = "per-layer, traced pass", perLayer
	}
	fmt.Printf("workload %s (%s): seed %d, %d measured + %d warm-up repetitions, %d workers on %d CPUs, %s\n",
		rec.Workload, mode, rec.Seed, rec.Reps, rec.Warmup, rec.Env.Workers, rec.Env.NumCPU, rec.Env.GoVersion)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.name, rec.Report.Metrics[d.name].Value, d.unit)
	}
	for _, d := range perLayer {
		if v, ok := rec.Diagnostics[d.name]; ok {
			fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if !rec.Trace && !rec.Settled {
		fmt.Printf("  too few repetitions for the best-decile estimator (%d needed): timings are minima\n", minTail)
	}
	if rec.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", rec.TraceFile)
	}
	fmt.Printf("  checked calls: %d attempted, %d failed\n", rec.Report.Attempted, rec.Report.Failed)
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// appendRecord adds the record to a JSON-lines file.
func appendRecord(path string, rec *record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

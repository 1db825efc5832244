// Command statsbench runs the repository's hot-path microbenchmarks
// through `go test -bench` and, with -out, writes the parsed results as a
// JSON document (the checked-in BENCH_pr*.json snapshots are such
// documents) that records the telemetry scrape/Emit costs, the
// always-on profiler's warm paths (incremental span folding and the
// windowed signals report), the engine's speculative path with the
// controlled scheduler disabled and enabled, the
// deterministic-reservations protocol in its whole-state and slotted
// shapes, and the engine's recycled hot path: warm vs cold run
// allocations, grouping-dominant runs, and the hash-first acceptance
// probe (hit and miss).
//
// With -budget it also acts as the regression gate: the budget file
// maps benchmark names (GOMAXPROCS -N suffix stripped) to allocs/op
// ceilings, and any measured result above its ceiling fails the run.
//
// Usage:
//
//	statsbench                     # measure and print; write nothing
//	statsbench -out results.json   # also write a snapshot
//	statsbench -benchtime 100x     # quicker smoke run
//	statsbench -pkgs telemetry,core  # only suites matching a comma-separated term
//	statsbench -budget BENCH_budget.json   # enforce allocs/op ceilings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	// Name is the benchmark's name with the -N GOMAXPROCS suffix kept.
	Name string `json:"name"`
	// Package is the Go package the benchmark lives in.
	Package string `json:"package"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -benchmem numbers (0 when absent).
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// MBPerSec is throughput when the benchmark reports SetBytes.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
}

// BenchDoc is the JSON document statsbench writes.
type BenchDoc struct {
	// GoVersion and Timestamp identify the run.
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
	// Benchtime is the -benchtime used.
	Benchtime string `json:"benchtime"`
	// Results are the parsed benchmark lines in run order.
	Results []BenchResult `json:"results"`
}

// suites are the (package, bench regexp) pairs the snapshot covers: the
// telemetry server under load plus the profiler's warm paths, the
// tracer's emit paths, and the engine's speculative run with the
// controlled scheduler off (nil fast path) and on (gate-serialized
// systematic-testing mode).
var suites = []struct{ pkg, pattern string }{
	{"./internal/telemetry", "BenchmarkMetricsScrapeUnderLoad|BenchmarkEmitWithSSEClient|BenchmarkEmitDisabledObserver|BenchmarkBuildSpans|BenchmarkSpanFolderWarm|BenchmarkSignalsReport"},
	{"./internal/obs", "BenchmarkEmitDisabled$|BenchmarkEmitEnabled|BenchmarkObserverDisabledGroupPath"},
	{"./internal/core", "BenchmarkEngineSpeculative$|BenchmarkEngineControlledSched$|BenchmarkEngineReservations$|BenchmarkEngineWarmRun|BenchmarkEngineColdRun$|BenchmarkEngineGrouping$|BenchmarkMatchAnyFingerprint"},
}

func main() {
	out := flag.String("out", "", "output JSON path (empty: don't write)")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	budgetPath := flag.String("budget", "", "allocs/op budget JSON; violations fail the run")
	pkgs := flag.String("pkgs", "", "only run suites whose package path contains one of these comma-separated substrings")
	flag.Parse()

	doc := BenchDoc{
		GoVersion: strings.TrimSpace(goVersion()),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Benchtime: *benchtime,
	}
	for _, s := range suites {
		if !pkgSelected(s.pkg, *pkgs) {
			continue
		}
		lines, err := runBench(s.pkg, s.pattern, *benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "statsbench: %s: %v\n", s.pkg, err)
			os.Exit(1)
		}
		doc.Results = append(doc.Results, lines...)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "statsbench: no benchmark lines parsed")
		os.Exit(1)
	}

	if *out != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "statsbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "statsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(doc.Results), *out)
	} else {
		fmt.Printf("measured %d benchmark results (no snapshot written)\n", len(doc.Results))
	}
	for _, r := range doc.Results {
		fmt.Printf("  %-45s %12.1f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}

	if *budgetPath != "" {
		if err := enforceBudget(*budgetPath, doc.Results); err != nil {
			fmt.Fprintln(os.Stderr, "statsbench:", err)
			os.Exit(1)
		}
	}
}

// pkgSelected reports whether the suite package passes the -pkgs filter:
// empty selects everything, otherwise the path must contain one of the
// comma-separated substrings (blank terms are ignored).
func pkgSelected(pkg, filter string) bool {
	if filter == "" {
		return true
	}
	for _, term := range strings.Split(filter, ",") {
		term = strings.TrimSpace(term)
		if term != "" && strings.Contains(pkg, term) {
			return true
		}
	}
	return false
}

// enforceBudget fails when any measured benchmark exceeds its allocs/op
// ceiling. The budget file maps bare benchmark names (no -N GOMAXPROCS
// suffix) to ceilings; benchmarks without an entry pass unchecked, and
// budget entries the run never measured are an error so a renamed
// benchmark cannot silently void its gate.
func enforceBudget(path string, results []BenchResult) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var budget map[string]int64
	if err := json.Unmarshal(blob, &budget); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	checked := map[string]bool{}
	var violations []string
	for _, r := range results {
		name := stripProcSuffix(r.Name)
		ceiling, ok := budget[name]
		if !ok {
			continue
		}
		checked[name] = true
		if r.AllocsPerOp > ceiling {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op exceeds the %d budget", name, r.AllocsPerOp, ceiling))
		}
	}
	for name := range budget {
		if !checked[name] {
			violations = append(violations, fmt.Sprintf(
				"%s: budgeted but never measured (renamed or filtered out?)", name))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("allocation budget violations:\n  %s",
			strings.Join(violations, "\n  "))
	}
	fmt.Printf("allocation budget OK (%d benchmarks within %s)\n", len(checked), path)
	return nil
}

// stripProcSuffix removes the trailing -N GOMAXPROCS decoration go test
// appends to benchmark names, so budgets are stable across machines.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// goVersion returns `go env GOVERSION`.
func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "unknown"
	}
	return string(out)
}

// runBench executes one `go test -bench` invocation and parses its output.
func runBench(pkg, pattern, benchtime string) ([]BenchResult, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-benchtime", benchtime, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	return parseBenchOutput(pkg, string(out)), nil
}

// parseBenchOutput extracts Benchmark… lines from go test output.
func parseBenchOutput(pkg, out string) []BenchResult {
	var res []BenchResult
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		r := BenchResult{Name: f[0], Package: pkg, Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			case "MB/s":
				r.MBPerSec = v
			}
		}
		res = append(res, r)
	}
	return res
}

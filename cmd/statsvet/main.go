// Command statsvet runs the STATS static-analysis suite: the IR verifier,
// the effect/purity dataflow, and the tradeoff lints over SDI/TI programs,
// plus the runtime-API analyzers over user Go code. It is the standalone
// face of the same passes the statsc -vet gate and stats.Runtime's module
// verification run.
//
// Inputs are classified by suffix:
//
//   - file.stats    — compiled through the front- and mid-end, then all
//     source lints and IR passes run over the result;
//   - file.ir.json  — decoded directly as an IR module (the form used for
//     corpus cases the well-formed pipeline cannot produce) and run
//     through the IR passes;
//   - file.go / dir — parsed with the stdlib parser and run through the
//     runtime-API misuse analyzers (negopts, droppedstats, specclosure,
//     reserveops, fingerprint); directories are walked recursively,
//     skipping testdata and _test.go.
//
// Every finding is an analysis.Diagnostic, printed one String line each
// or encoded as a JSON array under -json — the record statsc -vet prints.
//
// Usage:
//
//	statsvet internal/workload/*/*.stats     # findings-per-file text
//	statsvet -json corpus/broken/*.ir.json   # machine-readable findings
//	statsvet ./examples ./internal/workload  # Go runtime-API analyzers
//
// Exit status: 0 when no error-severity findings, 1 when any finding is
// an error, 2 on usage or I/O problems. Warnings never fail the run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/apivet"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/midend"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	listPasses := fs.Bool("passes", false, "list the analysis passes and exit")
	footMode := fs.Bool("footprints", false, "emit the inferred slot-level footprint map instead of findings")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: statsvet [-json] [-passes] [-footprints] path...")
		fmt.Fprintln(stderr, "paths: .stats sources, .ir.json modules, .go files or directories")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listPasses {
		for _, p := range analysis.Passes() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Doc)
		}
		for _, a := range apivet.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s (Go)\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *footMode {
		return runFootprints(fs.Args(), *jsonOut, stdout, stderr)
	}

	all := []analysis.Diagnostic{}
	var goPaths []string
	for _, path := range fs.Args() {
		if !isModule(path) {
			goPaths = append(goPaths, path)
			continue
		}
		_, ds, err := load(path)
		if err != nil {
			fmt.Fprintln(stderr, "statsvet:", err)
			return 2
		}
		all = append(all, ds...)
	}
	if len(goPaths) > 0 {
		ds, err := apivet.AnalyzePaths(goPaths)
		if err != nil {
			fmt.Fprintln(stderr, "statsvet:", err)
			return 2
		}
		all = append(all, ds...)
	}

	errs := 0
	for _, d := range all {
		if d.Severity == analysis.Error {
			errs++
		}
	}
	if *jsonOut {
		if err := writeJSON(stdout, all); err != nil {
			fmt.Fprintln(stderr, "statsvet:", err)
			return 2
		}
	} else {
		for _, d := range all {
			fmt.Fprintln(stdout, d)
		}
		if len(all) > 0 {
			fmt.Fprintf(stdout, "statsvet: %d error(s), %d warning(s)\n", errs, len(all)-errs)
		}
	}
	if errs > 0 {
		return 1
	}
	return 0
}

// writeJSON encodes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// slotDep is one dependence's entry in the -footprints export: the
// inferred and declared index expressions in their canonical renderings
// ("*", "3", "f", "2*f+1"). TestFootprintsSlotMapMatchesWorkloads holds
// the workload declarations' entries to the slot shapes the Go workloads
// reserve.
type slotDep struct {
	Dep      string   `json:"dep"`
	State    string   `json:"state"`
	Slots    int      `json:"slots,omitempty"`
	Precise  bool     `json:"precise"`
	Inferred []string `json:"inferred,omitempty"`
	Declared []string `json:"declared,omitempty"`
}

// slotMap is the per-file -footprints export document.
type slotMap struct {
	File string    `json:"file"`
	Deps []slotDep `json:"deps"`
}

// runFootprints handles -footprints mode: load each module, run the
// inference, and emit the slot map (JSON array or text). Go paths have no
// IR to infer over and are a usage error.
func runFootprints(paths []string, jsonOut bool, stdout, stderr io.Writer) int {
	maps := []slotMap{}
	for _, path := range paths {
		m, ds, err := load(path)
		if err != nil {
			fmt.Fprintln(stderr, "statsvet:", err)
			return 2
		}
		if m == nil {
			fmt.Fprintln(stderr, "statsvet:", ds[0])
			return 1
		}
		sm := slotMap{File: path}
		for _, fp := range analysis.InferFootprints(m) {
			sd := slotDep{Dep: fp.Dep, State: fp.State, Slots: fp.Slots, Precise: fp.Precise()}
			for _, e := range fp.Exprs() {
				sd.Inferred = append(sd.Inferred, e.String())
			}
			for _, e := range fp.Reserve {
				sd.Declared = append(sd.Declared, e.String())
			}
			sm.Deps = append(sm.Deps, sd)
		}
		maps = append(maps, sm)
	}
	if jsonOut {
		if err := writeJSON(stdout, maps); err != nil {
			fmt.Fprintln(stderr, "statsvet:", err)
			return 2
		}
		return 0
	}
	for _, sm := range maps {
		for _, sd := range sm.Deps {
			precise := "widened"
			if sd.Precise {
				precise = "precise"
			}
			fmt.Fprintf(stdout, "%s: dep %s: state %s slots %d %s inferred [%s] declared [%s]\n",
				sm.File, sd.Dep, sd.State, sd.Slots, precise,
				strings.Join(sd.Inferred, " "), strings.Join(sd.Declared, " "))
		}
	}
	return 0
}

// isModule reports whether path names an IR module input: a .stats
// source or an .ir.json document. Everything else is Go.
func isModule(path string) bool {
	return strings.HasSuffix(path, ".stats") || strings.HasSuffix(path, ".ir.json")
}

// load is the one module loader of both modes. It compiles a .stats
// source through the front- and mid-end (source lints plus every IR pass)
// or decodes an .ir.json module (IR passes only) and returns the module
// with its findings, each filed under path. A nil module means the input
// itself was rejected; the one finding then says by which stage, with
// the line when the front-end reports one.
func load(path string) (*ir.Module, []analysis.Diagnostic, error) {
	if !isModule(path) {
		return nil, nil, fmt.Errorf("%s: -footprints wants .stats or .ir.json inputs", path)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	reject := func(pass string, line int, msg string) (*ir.Module, []analysis.Diagnostic, error) {
		return nil, []analysis.Diagnostic{{File: path, Pass: pass, Severity: analysis.Error, Pos: ir.Pos{Line: line}, Msg: msg}}, nil
	}
	var m *ir.Module
	var ds []analysis.Diagnostic
	if strings.HasSuffix(path, ".stats") {
		fo, err := frontend.Translate(string(src))
		var fe *frontend.Error
		if errors.As(err, &fe) {
			return reject("frontend", fe.Line, fe.Msg)
		} else if err != nil {
			return reject("frontend", 0, err.Error())
		}
		if m, err = midend.Lower(fo); err != nil {
			return reject("midend", 0, err.Error())
		}
		ds = analysis.AnalyzeProgram(fo, m)
	} else {
		if m, err = ir.DecodeJSON(bytes.NewReader(src)); err != nil {
			return reject("decode", 0, err.Error())
		}
		ds = analysis.Analyze(m)
	}
	for i := range ds {
		ds[i].File = path
	}
	return m, ds, nil
}

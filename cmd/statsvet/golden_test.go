package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/apivet"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// globAll gathers corpus files under dir in sorted order.
func globAll(t *testing.T, dir string, patterns ...string) []string {
	t.Helper()
	var out []string
	for _, p := range patterns {
		matches, err := filepath.Glob(filepath.Join(dir, p))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, matches...)
	}
	sort.Strings(out)
	if len(out) == 0 {
		t.Fatalf("no corpus files under %s", dir)
	}
	return out
}

// checkGolden compares got with the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (re-run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update after verifying):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// workloadDecls is the good corpus: the six workloads' own declarations,
// read where their packages embed them.
const workloadDecls = "../../internal/workload"

// TestGoodCorpusIsClean is the false-positive acceptance bar: the six
// workload declarations must produce zero findings and a zero exit.
func TestGoodCorpusIsClean(t *testing.T) {
	paths := globAll(t, workloadDecls, "*/*.stats")
	if len(paths) != 6 {
		t.Fatalf("want the 6 workload programs, got %d: %v", len(paths), paths)
	}
	var out, errb bytes.Buffer
	if code := run(paths, &out, &errb); code != 0 {
		t.Fatalf("exit %d on the good corpus; stderr: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("findings on the good corpus:\n%s", out.String())
	}
}

// brokenCorpus returns every deliberately broken case.
func brokenCorpus(t *testing.T) []string {
	t.Helper()
	return globAll(t, "testdata/corpus/broken", "*.stats", "*.ir.json", "*.go")
}

// TestBrokenCorpusEachDetected requires at least one finding per broken
// case — no seeded bug slips through.
func TestBrokenCorpusEachDetected(t *testing.T) {
	for _, path := range brokenCorpus(t) {
		var out, errb bytes.Buffer
		code := run([]string{path}, &out, &errb)
		if code == 2 {
			t.Errorf("%s: statsvet failed to process the case: %s", path, errb.String())
			continue
		}
		if out.Len() == 0 {
			t.Errorf("%s: no findings on a deliberately broken case", path)
		}
	}
}

// TestGoldenText locks the findings-per-file text output over the broken
// corpus.
func TestGoldenText(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(brokenCorpus(t), &out, &errb)
	if code == 2 {
		t.Fatalf("statsvet failed: %s", errb.String())
	}
	if code != 1 {
		t.Fatalf("want exit 1 (error findings present), got %d", code)
	}
	checkGolden(t, "testdata/golden/broken.txt", out.Bytes())
}

// TestGoldenTextLinesDistinct pins that every finding says what was found:
// two findings that render as the same line read as one finding reported
// twice.
func TestGoldenTextLinesDistinct(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden/broken.txt")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		if first, dup := seen[line]; dup {
			t.Errorf("lines %d and %d are the same finding: %s", first, i+1, line)
		}
		seen[line] = i + 1
	}
}

// faults names the faults two passes word differently: a duplicate
// declaration, a knob with one value, a value listed twice. Any other finding's
// fault is its message.
var faults = []struct {
	re   *regexp.Regexp
	name string
}{
	{regexp.MustCompile(`declared twice|already declared`), "declared twice"},
	{regexp.MustCompile(`single value`), "single value"},
	{regexp.MustCompile(`more than once`), "listed more than once"},
}

// fault returns the fault a finding's message reports.
func fault(msg string) string {
	for _, f := range faults {
		if f.re.MatchString(msg) {
			return f.name
		}
	}
	return msg
}

// TestGoldenOneFindingPerFault: a fault is reported once, by the earliest
// stage that sees the declaration under its own name — two findings of one
// fault at one file:line:col, in either golden, are one fault reported twice
// (a source lint and the IR pass over the row the declaration was lowered
// to, say).
func TestGoldenOneFindingPerFault(t *testing.T) {
	text, err := os.ReadFile("testdata/golden/broken.txt")
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile("testdata/golden/broken.json")
	if err != nil {
		t.Fatal(err)
	}
	var findings []struct {
		File      string
		Line, Col int
		Msg       string
	}
	if err := json.Unmarshal(js, &findings); err != nil {
		t.Fatal(err)
	}
	keys := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		// file:line:col: severity: pass: message (locators)
		parts := strings.SplitN(line, ": ", 4)
		if len(parts) < 4 {
			continue // the summary line
		}
		keys["broken.txt"] = append(keys["broken.txt"], parts[0]+" "+fault(parts[3]))
	}
	for _, f := range findings {
		keys["broken.json"] = append(keys["broken.json"], fmt.Sprintf("%s:%d:%d %s", f.File, f.Line, f.Col, fault(f.Msg)))
	}
	for golden, ks := range keys {
		seen := map[string]bool{}
		for _, k := range ks {
			if seen[k] {
				t.Errorf("%s reports one fault twice at one position: %s", golden, k)
			}
			seen[k] = true
		}
	}
}

// TestGoldenJSON locks the -json rendering of the same findings.
func TestGoldenJSON(t *testing.T) {
	var out, errb bytes.Buffer
	args := append([]string{"-json"}, brokenCorpus(t)...)
	code := run(args, &out, &errb)
	if code == 2 {
		t.Fatalf("statsvet failed: %s", errb.String())
	}
	checkGolden(t, "testdata/golden/broken.json", out.Bytes())
}

// registered lists the IR passes and Go analyzers from their registries,
// so a pass is covered by the tests below the day it is registered.
func registered() []string {
	var names []string
	for _, p := range analysis.Passes() {
		names = append(names, p.Name)
	}
	for _, a := range apivet.Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// TestPassCoverage requires the broken corpus to exercise every analysis
// pass and every Go analyzer, plus the front-end's rejections and the
// source lints, so a pass can't silently go dark.
func TestPassCoverage(t *testing.T) {
	var out, errb bytes.Buffer
	run(brokenCorpus(t), &out, &errb)
	text := out.String()
	for _, pass := range append([]string{"frontend", "srclint"}, registered()...) {
		if !strings.Contains(text, " "+pass+": ") {
			t.Errorf("broken corpus never triggers pass %s", pass)
		}
	}
}

// TestPassesFlag smoke-tests the -passes listing: every registered IR
// pass and Go analyzer is listed.
func TestPassesFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-passes"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, name := range registered() {
		if !strings.Contains(out.String(), name+" ") {
			t.Errorf("-passes listing missing %s:\n%s", name, out.String())
		}
	}
}

// TestWarningsOnlyExitsZero: warnings never fail the run, so a file whose
// findings are all warnings (a knob with a single value) exits 0.
func TestWarningsOnlyExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "testdata/corpus/broken/single_value.stats"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d on warnings alone, want 0; stderr: %s\n%s", code, errb.String(), out.String())
	}
	var ds []map[string]any
	if err := json.Unmarshal(out.Bytes(), &ds); err != nil {
		t.Fatalf("decoding findings: %v", err)
	}
	if len(ds) == 0 {
		t.Fatal("no findings: the case no longer exercises the warnings-only exit")
	}
	for _, d := range ds {
		if d["severity"] != "warning" {
			t.Errorf("finding %v, want a warning", d)
		}
	}
}

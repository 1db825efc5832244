package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/midend"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// childEnv marks a child process that runs statsc's main instead of the
// tests: main exits the process on an error, so every invocation runs in a
// child of its own.
const childEnv = "STATSC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const source = "../../internal/workload/bodytrack/bodytrack.stats"

// statsc runs the command with args and returns its stdout, stderr and
// exit code.
func statsc(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestGoldenEmit pins statsc's output over the bodytrack source for each
// -emit mode, for the package comment's binary example, and for a bare
// binary, whose dependence prints its space defaults.
func TestGoldenEmit(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"std", []string{"-emit", "std"}},
		{"header", []string{"-emit", "header"}},
		{"ir", []string{"-emit", "ir"}},
		{"binary-doc", []string{"-emit", "binary",
			"-set", "TO_AnnealingLayers$aux$track=2",
			"-runtime", "track=aux,group=8,window=2,redo=2,rollback=2"}},
		{"binary-default", []string{"-emit", "binary"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			out, errb, code := statsc(t, append([]string{"-in", source}, c.args...)...)
			if code != 0 {
				t.Fatalf("exit %d; stderr: %s", code, errb)
			}
			checkGolden(t, filepath.Join("testdata", c.golden+".golden"), out)
		})
	}
}

// TestFlagsRefused checks that a configuration flag naming no dimension, or
// a value off its dimension's grid, or a malformed flag, makes statsc exit 1
// naming what it refused, before anything is printed. An unknown -emit is
// refused before the input is read: over a source the vet gate would refuse,
// the flag is still what statsc names.
func TestFlagsRefused(t *testing.T) {
	cases := []struct {
		flag, arg, want string
	}{
		{"-runtime", "track=aux,speed=3", "no dimension track.speed"},
		{"-runtime", "ghost=aux", "no dimension ghost.aux"},
		{"-runtime", "track=aux,group=7", "track.group cannot be 7"},
		{"-runtime", "track=window=5", "track.window cannot be 5"},
		{"-set", "TO_AnnealingLayers$aux$track=10", "aux.TO_AnnealingLayers$aux$track cannot be 10"},
		{"-set", "TO_AnnealingLayers$aux$track", "malformed -set"},
		{"-runtime", "track", "malformed -runtime"},
		{"-runtime", "track=aux,group", "malformed option"},
		{"-runtime", "track=group=eight", "invalid syntax"},
		{"-emit", "bogus", `unknown -emit "bogus"`},
	}
	for _, c := range cases {
		in := source
		if c.flag == "-emit" {
			in = "../statsvet/testdata/corpus/broken/footprint_range.stats"
		}
		out, errb, code := statsc(t, "-in", in, "-emit", "binary", c.flag, c.arg)
		if code != 1 || out != "" || !strings.Contains(errb, c.want) {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 1, no output and %q",
				c.flag, c.arg, code, out, errb, c.want)
		}
	}
}

// TestNonIdentifierNamesRefused checks that a tradeoff or statedep name
// that is not an identifier makes statsc exit 1 with a positioned
// front-end error under every -emit mode: such a name would be spliced
// into the generated #define and StateDependence declaration.
func TestNonIdentifierNamesRefused(t *testing.T) {
	src := "tradeoff TO a-b {\n    kind constant;\n    values 1..4;\n    default 0;\n}\n\n" +
		"statedep my dep {\n    input Frame;\n    state Model;\n    output Pos;\n" +
		"    compute update uses TO a-b;\n    compare cmp;\n}\n"
	path := filepath.Join(t.TempDir(), "names.stats")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, emit := range []string{"std", "header", "ir", "binary"} {
		out, errb, code := statsc(t, "-in", path, "-emit", emit)
		want := `frontend: line 1: tradeoff name "TO a-b" is not an identifier`
		if code != 1 || out != "" || !strings.Contains(errb, want) {
			t.Errorf("-emit %s: exit %d, stdout %q, stderr %q; want exit 1, no output and %q",
				emit, code, out, errb, want)
		}
	}
}

// TestAuxWithoutAuxCodeRefused covers a dependence with no auxiliary code.
// The middle-end gives every dependence one, so no source reaches this:
// the module is broken by hand and instantiated in process.
func TestAuxWithoutAuxCodeRefused(t *testing.T) {
	src, err := os.ReadFile(source)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := frontend.Translate(string(src))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := midend.Lower(fo)
	if err != nil {
		t.Fatal(err)
	}
	mod.Deps[0].AuxCompute = ""
	if _, err := instantiate(mod, nil, []string{"track=group=8"}); err != nil {
		t.Fatalf("a conventional dependence needs no auxiliary code: %v", err)
	}
	_, err = instantiate(mod, nil, []string{"track=aux"})
	if err == nil || !strings.Contains(err.Error(), "dependence track has no auxiliary code") {
		t.Fatalf("aux on a dependence without auxiliary code: err %v", err)
	}
}

// checkGolden compares got with the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (re-run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update after verifying):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
	if strings.TrimSpace(got) == "" {
		t.Errorf("empty output for %s", golden)
	}
}

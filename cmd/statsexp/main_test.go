package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// childEnv marks a child process that runs statsexp's main instead of the
// tests: main exits the process on an error, so every invocation runs in a
// child of its own.
const childEnv = "STATSEXP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// statsexp runs the command with args and returns its stdout, stderr and
// exit code.
func statsexp(t *testing.T, args ...string) (string, string, int) {
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

// TestGoldenFig03 pins `-exp fig03 -quick` in each output format; an ID
// matches whatever its case.
func TestGoldenFig03(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig03.text", []string{"-exp", "fig03"}},
		{"fig03.json", []string{"-exp", "fig03", "-format", "json"}},
		{"fig03.csv", []string{"-exp", "fig03", "-format", "csv"}},
		{"fig03.text", []string{"-exp", "FIG03", "-format", "text"}},
	}
	for _, c := range cases {
		out, errb, code := statsexp(t, append(c.args, "-quick")...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr: %s", c.args, code, errb)
		}
		checkGolden(t, filepath.Join("testdata", c.golden+".golden"), out)
	}
}

// ids is the list the help text and the unknown-ID message give.
func ids() string {
	s := "all"
	for _, x := range harness.Experiments {
		s += ", " + x.ID
	}
	return s
}

// TestRefused checks that an unknown experiment or format, or a negative
// schedule count, exits 2 naming what it refused, before any experiment
// prints a line. -exp ALL gets past the ID check to the format's: "all"
// matches whatever its case too.
func TestRefused(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig03", "-format", "xml"}, `unknown format "xml" (want one of text, json, csv)`},
		{[]string{"-exp", "all", "-format", "xml"}, `unknown format "xml"`},
		{[]string{"-exp", "ALL", "-format", "xml"}, `unknown format "xml"`},
		{[]string{"-exp", "fig99"}, `unknown experiment "fig99" (want one of ` + ids() + ")"},
		{[]string{"-exp", "explore", "-schedules", "-3"}, `-schedules -3: want at least 0`},
	}
	for _, c := range cases {
		out, errb, code := statsexp(t, append(c.args, "-quick")...)
		if code != 2 || out != "" || !strings.Contains(errb, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and %q",
				c.args, code, out, errb, c.want)
		}
	}
}

// TestHelpListsExperiments checks that -help names every experiment ID.
func TestHelpListsExperiments(t *testing.T) {
	_, errb, code := statsexp(t, "-help")
	want := "experiment: one of " + ids()
	if code != 0 || !strings.Contains(errb, want) {
		t.Errorf("exit %d, stderr %q; want exit 0 and %q", code, errb, want)
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
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/workload/registry"
)

// childEnv marks a child process that runs statsrun's main instead of the
// tests: main exits the process on a refusal.
const childEnv = "STATSRUN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// statsrun runs main in a child process with args and returns its stdout,
// stderr and exit code.
func statsrun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestRefused checks that a flag value statsrun cannot run exits 2 naming
// the value, before anything is printed or run (a negative -size used to
// panic slicing the stream or in makeslice, a negative -workers ran
// conventionally without a word, and a negative -repeat served telemetry for
// no run at all).
func TestRefused(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "streamcluster", "-size", "-1"}, "statsrun: -size -1: want at least 1"},
		{[]string{"-export", "-workload", "bodytrack", "-size", "-2", "-summary"}, "statsrun: -size -2: want at least 1"},
		{[]string{"-workload", "swaptions", "-size", "0"}, "statsrun: -size 0: want at least 1"},
		{[]string{"-aux", "-workers", "-3"}, "statsrun: -workers -3: want at least 0"},
		{[]string{"-aux", "-group", "0"}, "statsrun: -group 0: want at least 1"},
		{[]string{"-aux", "-window", "-1"}, "statsrun: -window -1: want at least 0"},
		{[]string{"-aux", "-redo", "-2"}, "statsrun: -redo -2: want at least 0"},
		{[]string{"-aux", "-rollback", "-1"}, "statsrun: -rollback -1: want at least 0"},
		{[]string{"-aux", "-serve", "localhost:0", "-repeat", "-1"}, "statsrun: -repeat -1: want at least 0"},
		{[]string{"-aux", "-protocol", "bogus"}, `statsrun: unknown protocol "bogus" (want aux or reservations)`},
		{[]string{"-workload", "bogus"}, `statsrun: registry: unknown workload "bogus"`},
		{[]string{"-export", "-workload", "canneal", "-size", "8", "-bad"}, "statsrun: inputgen: canneal has no bad-training variant"},
	}
	for _, c := range cases {
		out, errs, code := statsrun(t, c.args...)
		if code != 2 || out != "" || strings.TrimSpace(errs) != c.want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and %q",
				c.args, code, out, errs, c.want)
		}
	}
}

// TestList checks that -list prints the registry's workloads, one a line.
func TestList(t *testing.T) {
	out, errs, code := statsrun(t, "-list")
	if want := strings.Join(registry.Names(), "\n") + "\n"; code != 0 || out != want || errs != "" {
		t.Fatalf("-list: exit %d, stdout %q, stderr %q; want exit 0 and %q", code, out, errs, want)
	}
}

// TestExportSummaryGolden pins -export -summary for every listed workload at
// size 8, native and (where there is one) the §4.6 variant, against
// testdata/summary.golden.
func TestExportSummaryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/summary.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, name := range registry.Names() {
		for _, variant := range [][]string{nil, {"-bad"}} {
			args := append([]string{"-export", "-workload", name, "-size", "8", "-summary"}, variant...)
			out, errs, code := statsrun(t, args...)
			if code != 0 && !(name == "canneal" && variant != nil) {
				t.Fatalf("%v: exit %d, stderr %q", args, code, errs)
			}
			got.WriteString(out)
		}
	}
	if got.String() != string(want) {
		t.Fatalf("-export -summary output differs from testdata/summary.golden:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestReservationsSpeculateWithoutAux checks that -protocol reservations runs
// reservation rounds with or without -aux: the protocol has no auxiliary
// code, and a run without -aux used to execute every input conventionally
// and print 0 rounds for it.
func TestReservationsSpeculateWithoutAux(t *testing.T) {
	for _, aux := range [][]string{nil, {"-aux"}} {
		args := append([]string{"-workload", "streamcluster", "-size", "64", "-workers", "2", "-protocol", "reservations"}, aux...)
		out, errs, code := statsrun(t, args...)
		rounds := 0
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "rounds / conflicts:"); ok {
				fmt.Sscan(rest, &rounds)
			}
		}
		if code != 0 || rounds == 0 {
			t.Errorf("%v: exit %d, %d rounds, stderr %q; want exit 0 and rounds > 0:\n%s", args, code, rounds, errs, out)
		}
	}
}

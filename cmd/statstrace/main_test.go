package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv marks a child process that runs statstrace's main instead of the
// tests: main exits the process on a refusal.
const childEnv = "STATSTRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefused checks that a flag value or mode statstrace cannot run exits 2
// naming the value, before anything is rendered, on the simulated and the
// -live path alike (a zero thread count used to panic in the simulator, -size
// 0 printed an empty schedule, a negative -size panicked in makeslice, and
// -group 0 simulated a 1 166-task graph, and -width -3 drew a full-width
// chart).
func TestRefused(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-threads", "0"}, "statstrace: -threads 0: want at least 1"},
		{[]string{"-threads", "0", "-live"}, "statstrace: -threads 0: want at least 1"},
		{[]string{"-mode", "bogus"}, `statstrace: unknown mode "bogus"`},
		{[]string{"-size", "0"}, "statstrace: -size 0: want at least 1"},
		{[]string{"-size", "-3", "-live"}, "statstrace: -size -3: want at least 1"},
		{[]string{"-group", "0"}, "statstrace: -group 0: want at least 1"},
		{[]string{"-group", "0", "-live"}, "statstrace: -group 0: want at least 1"},
		{[]string{"-window", "-1"}, "statstrace: -window -1: want at least 0"},
		{[]string{"-window", "-1", "-live"}, "statstrace: -window -1: want at least 0"},
		{[]string{"-redo", "-2", "-live"}, "statstrace: -redo -2: want at least 0"},
		{[]string{"-rollback", "-1"}, "statstrace: -rollback -1: want at least 0"},
		{[]string{"-width", "-3", "-from-spans", "missing.json"}, "statstrace: -width -3: want at least 1"},
		{[]string{"-rows", "0"}, "statstrace: -rows 0: want at least 1"},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || out.Len() != 0 || strings.TrimSpace(errb.String()) != c.want {
			t.Errorf("%v: err %v, stdout %q, stderr %q; want exit 2, no output and %q",
				c.args, err, out.String(), errb.String(), c.want)
		}
	}
}

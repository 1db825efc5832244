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

// TestRefused checks that a thread count or mode statstrace cannot run
// exits 2 naming the value, before anything is rendered (a zero thread
// count used to panic in the simulator).
func TestRefused(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-threads", "0"}, "statstrace: -threads 0: want at least 1"},
		{[]string{"-threads", "0", "-live"}, "statstrace: -threads 0: want at least 1"},
		{[]string{"-mode", "bogus"}, `statstrace: unknown mode "bogus"`},
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

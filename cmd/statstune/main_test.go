package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv marks a child process that runs statstune's main instead of the
// tests: main exits the process on a refusal.
const childEnv = "STATSTUNE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefused checks that a mode, goal, thread count or budget statstune
// cannot run exits 2 naming the value, before the tuner prints anything (a
// zero thread count used to panic building the state space; an unknown mode
// or goal used to run par/time silently; a budget below 1 ran one evaluation
// and printed it as the tuned configuration).
func TestRefused(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "bogus"}, `statstune: unknown mode "bogus" (want seq or par)`},
		{[]string{"-goal", "bogus"}, `statstune: unknown goal "bogus" (want time or energy)`},
		{[]string{"-threads", "0"}, "statstune: -threads 0: want at least 1"},
		{[]string{"-budget", "0"}, "statstune: -budget 0: want at least 1"},
		{[]string{"-budget", "-5"}, "statstune: -budget -5: want at least 1"},
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

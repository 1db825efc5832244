package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/platform"
)

// Regenerate the goldens after an intentional rendering change with
//
//	go test ./internal/trace -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with the current output")

// checkGolden compares got against testdata/<name>.golden byte for byte,
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenSchedule is a small fixed schedule covering Render's cases:
// multiple tasks per thread, glyph cycling, an idle gap, and a task
// clipped at the right edge.
func goldenSchedule() platform.Result {
	return platform.Result{
		Makespan:    10,
		BusyWork:    14,
		ThreadsUsed: 3,
		Assignments: []platform.Assignment{
			{Task: 0, Thread: 0, Start: 0, End: 3},
			{Task: 1, Thread: 0, Start: 3, End: 5},
			{Task: 2, Thread: 1, Start: 1, End: 4},
			{Task: 3, Thread: 1, Start: 6, End: 9},
			{Task: 7, Thread: 2, Start: 2, End: 5},
			{Task: 8, Thread: 2, Start: 9, End: 10},
		},
	}
}

func TestRenderGolden(t *testing.T) {
	var b bytes.Buffer
	Render(&b, goldenSchedule(), Options{Width: 60})
	checkGolden(t, "render", b.Bytes())
}

package conformance

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/racemode"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.golden from this tree's results")

// pinnedCell is one of the benchmark's (program, size, options) cells: what a
// change to a program's state handling must reproduce byte for byte.
type pinnedCell struct {
	program string
	size    int
	opts    workload.SpecOptions
	seeds   uint64
}

func pinned() []pinnedCell {
	aux := workload.SpecOptions{UseAux: true, GroupSize: 8, Window: 2, RedoMax: 2, Rollback: 2}
	starved, wide, resv := aux, aux, aux
	starved.Window, starved.RedoMax = 0, 1
	wide.GroupSize, wide.Window = 32, 8
	resv.Protocol = core.ProtocolReservations
	// Seeds 0–7 for the programs whose state handling changed; two for
	// bodytrack and swaptions, whose code did not (only the engine's elided
	// clones run under them) and whose invocations are the suite's dearest
	// (50–60 ms a run; eight seeds of them were 3 s of tier-1 wall time).
	return []pinnedCell{
		{"streamclassifier", 1024, aux, 8},
		{"streamcluster", 1024, aux, 8},
		{"facedet", 64, aux, 8},
		{"facedet", 256, starved, 8},
		{"fluidanimate", 256, aux, 8},
		{"bodytrack", 64, aux, 2},
		{"bodytrack", 32, starved, 2},
		{"swaptions", 64, wide, 2},
		// The reservations cells run the sharded streamcluster path (shard
		// merge and final assignment) that no aux cell reaches.
		{"swaptions", 32, resv, 2},
		{"streamclassifier", 1024, resv, 4},
		{"streamcluster", 1024, resv, 4},
		{"fluidanimate", 256, resv, 4},
	}
}

// TestResultsPinned digests every pinned cell's result on its seeds along four
// paths — the original program's walk, the engine's sequential run, and the
// cell's protocol on one lane and on two — and compares them with the digests
// recorded before the programs began updating their state in place (the
// reservations cells: before the stream kernels were unrolled;
// testdata/pins.golden, written by -update-pins). A result is the program's
// whole answer printed with %v: floats print in their shortest round-trip
// form, so equal digests are equal bits.
func TestResultsPinned(t *testing.T) {
	var got strings.Builder
	for _, c := range pinned() {
		w, err := registry.ByName(c.program)
		if err != nil {
			t.Fatal(err)
		}
		seeds := c.seeds
		if racemode.Enabled || testing.Short() {
			seeds = 2
		}
		protocol := ""
		if c.opts.Protocol == core.ProtocolReservations {
			protocol = "/resv"
		}
		for seed := uint64(0); seed < seeds; seed++ {
			seq, one, two := c.opts, c.opts, c.opts
			seq.UseAux, one.Workers, two.Workers = false, 1, 2
			paths := []struct {
				name string
				run  func() workload.Result
			}{
				{"orig", func() workload.Result { return w.RunOriginal(seed, c.size) }},
				{"seq", func() workload.Result { r, _ := w.RunSTATS(seed, c.size, seq); return r }},
				{"aux1", func() workload.Result { r, _ := w.RunSTATS(seed, c.size, one); return r }},
				{"aux2", func() workload.Result { r, _ := w.RunSTATS(seed, c.size, two); return r }},
			}
			for _, p := range paths {
				h := sha256.New()
				fmt.Fprintf(h, "%v", p.run())
				fmt.Fprintf(&got, "%s/%d/w%d%s seed %d %s %x\n", c.program, c.size, c.opts.Window, protocol, seed, p.name, h.Sum(nil)[:12])
			}
		}
	}
	const golden = "testdata/pins.golden"
	if *updatePins {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	pinnedLines := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		pinnedLines[line] = true
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		if !pinnedLines[line] {
			t.Errorf("not the pinned result: %s", line)
		}
	}
}

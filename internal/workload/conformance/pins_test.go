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

// pinnedOracles are the programs and sizes whose RunOracle result is pinned:
// the oracle takes no seed and runs the programs at their dearest settings
// (bodytrack's 512 particles and 10 layers, swaptions' 16× trials).
var pinnedOracles = []struct {
	program string
	size    int
}{{"bodytrack", 8}, {"swaptions", 4}}

func pinned() []pinnedCell {
	aux := workload.SpecOptions{UseAux: true, GroupSize: 8, Window: 2, RedoMax: 2, Rollback: 2}
	starved, wide, resv := aux, aux, aux
	starved.Window, starved.RedoMax = 0, 1
	wide.GroupSize, wide.Window = 32, 8
	resv.Protocol = core.ProtocolReservations
	bodyTuned, swapTuned := aux, aux
	// Half-precision weights, 32 particles and 2 layers in bodytrack's aux
	// (so the compute re-samples the aux state back to 128 particles);
	// half path and single discount precision in swaptions'.
	bodyTuned.TradeoffIdx = []int64{1, 0, 1}
	swapTuned.TradeoffIdx = []int64{0, 1}
	// Seeds 0–7 for the microsecond programs; two for bodytrack and
	// swaptions, whose invocations are the suite's dearest (50–60 ms a run;
	// eight seeds of them were 3 s of tier-1 wall time). The small tuned
	// cells pin the paths their default cells miss: every precision branch
	// and bodytrack's particle resize.
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
		{"bodytrack", 16, bodyTuned, 2},
		{"swaptions", 16, swapTuned, 2},
	}
}

// TestResultsPinned digests every pinned cell's result on its seeds along four
// paths — the original program's walk, the engine's sequential run, and the
// cell's protocol on one lane and on two — and every pinned oracle's result,
// and compares them with the digests recorded before the
// programs began updating their state in place (the reservations cells:
// before the stream kernels were unrolled; the tuned and oracle cells: before
// bodytrack's and swaptions' kernels were reordered; testdata/pins.golden,
// written by -update-pins). A result is the program's whole answer printed
// with %v: floats print in their shortest round-trip form, so equal digests
// are equal bits.
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
		tag := ""
		if c.opts.Protocol == core.ProtocolReservations {
			tag = "/resv"
		}
		if c.opts.TradeoffIdx != nil {
			tag += "/t" + strings.ReplaceAll(fmt.Sprint(c.opts.TradeoffIdx), " ", ",")
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
				fmt.Fprintf(&got, "%s/%d/w%d%s seed %d %s %x\n", c.program, c.size, c.opts.Window, tag, seed, p.name, h.Sum(nil)[:12])
			}
		}
	}
	for _, o := range pinnedOracles {
		w, err := registry.ByName(o.program)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v", w.RunOracle(o.size))
		fmt.Fprintf(&got, "%s/%d/oracle %x\n", o.program, o.size, h.Sum(nil)[:12])
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

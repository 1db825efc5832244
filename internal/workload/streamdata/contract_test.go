package streamdata_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/workload"
	"repro/internal/workload/streamclassifier"
	"repro/internal/workload/streamcluster"
	"repro/internal/workload/streamdata"
)

// streamHash hashes every label and coordinate bit of the cached stream.
func streamHash(n int, bad bool) uint64 {
	h := mathx.NewHash64()
	for _, pt := range streamdata.Stream(n, bad) {
		h = h.Int(pt.Label)
		for _, x := range pt.X {
			h = h.Float(x)
		}
	}
	return h.Sum()
}

// TestStreamSharedReadOnly is the cache's contract: every entry point of
// both stream programs reads the one shared stream (and streamcluster's
// results carry its coordinate view) and none writes it.
func TestStreamSharedReadOnly(t *testing.T) {
	const size = 24
	n := len(streamcluster.Points(size, false))
	if m := len(streamclassifier.Points(size, false)); m > n {
		n = m
	}
	want := map[bool]uint64{false: streamHash(n, false), true: streamHash(n, true)}
	check := func(entry string) {
		t.Helper()
		for bad, h := range want {
			if got := streamHash(n, bad); got != h {
				t.Fatalf("after %s: stream (badTraining=%v) hash %#x, want %#x: an entry point wrote the shared stream", entry, bad, got, h)
			}
		}
	}
	for _, w := range []workload.Workload{streamcluster.New(), streamclassifier.New()} {
		name := w.Desc().Name
		w.RunOriginal(1, size)
		check(name + " RunOriginal")
		w.RunOracle(size)
		check(name + " RunOracle")
		w.RunBoosted(1, size, 3)
		check(name + " RunBoosted")
		for _, proto := range []core.Protocol{core.ProtocolAux, core.ProtocolReservations} {
			for _, bad := range []bool{false, true} {
				w.RunSTATS(1, size, workload.SpecOptions{
					UseAux: true, Protocol: proto, GroupSize: 4, Window: 2, RedoMax: 1, Rollback: 1, Workers: 2, BadTraining: bad,
				})
				check(name + " RunSTATS " + proto.String())
			}
		}
	}
}

// Package broken seeds both fingerprint hints: a StateOps literal and a
// SetStateOps call that attach a match function without a fingerprint.
// Both are warnings: a fingerprint only saves time, never correctness.
package broken

import (
	"repro/internal/core"
	"repro/stats"
)

type walk struct{ n int }

func sameWalk(spec walk, originals []walk) bool { return spec.n == originals[0].n }

func literalOps() core.StateOps[walk] {
	return core.StateOps[walk]{Clone: func(s walk) walk { return s }, MatchAny: sameWalk}
}

func setOps(sd *stats.StateDependence[int, walk, int]) {
	sd.SetStateOps(func(s walk) walk { return s }, sameWalk)
}

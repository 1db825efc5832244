//go:build !race

// Package racemode tells tests whether the race detector is compiled in.
// Two kinds of test ask: allocation ceilings over a sync.Pool (telemetry's
// span accumulators), which skip — race-mode sync.Pool drops puts at random,
// by design, to widen interleavings, so allocs/run means nothing there — and
// schedule sweeps, which shrink (gate-serialized runs magnify
// race-instrumentation overhead). The engine's and the kernels' ceilings run
// under -race too: their scratch is parked in the slots of a recycle.List,
// which a measured loop on one processor never overflows into its sync.Pool.
package racemode

// Enabled reports whether the binary was built with -race.
const Enabled = false

//go:build !race

// Package racemode tells tests whether the race detector is compiled in.
// Tests whose figures race instrumentation changes ask: schedule sweeps,
// which shrink (gate-serialized runs magnify race-instrumentation
// overhead), slow pinning runs, and a check of what a recycle.List's
// overflow keeps (race-mode sync.Pool drops puts at random, by design, to
// widen interleavings). No allocation ceiling asks: the engine's and the
// kernels' scratch is parked in the slots of a recycle.List, which a
// measured loop on one processor never overflows into its sync.Pool, and
// the span folder recycles its own accumulators, so every ceiling runs
// under -race too.
package racemode

// Enabled reports whether the binary was built with -race.
const Enabled = false

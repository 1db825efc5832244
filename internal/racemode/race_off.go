//go:build !race

// Package racemode tells tests whether the race detector is compiled in.
// Two kinds of test ask: allocation ceilings, which skip (race-mode
// sync.Pool drops puts at random, by design, to widen interleavings, so
// warm-path allocs/run means nothing there), and schedule sweeps, which
// shrink (gate-serialized runs magnify race-instrumentation overhead).
package racemode

// Enabled reports whether the binary was built with -race.
const Enabled = false

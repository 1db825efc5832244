//go:build race

package racemode

// Enabled reports whether the binary was built with -race.
const Enabled = true

//go:build race

package racecheck

// Enabled reports whether the binary was built with -race.
const Enabled = true

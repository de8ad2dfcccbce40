//go:build !race

// Package racecheck tells a test whether the race detector is on. Under
// -race sync.Pool drops objects on purpose, so an allocation count taken
// there is not the count the program makes.
package racecheck

// Enabled reports whether the binary was built with -race.
const Enabled = false

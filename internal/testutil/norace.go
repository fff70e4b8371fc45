//go:build !race

package testutil

// RaceEnabled reports whether the race detector is on (see race.go).
const RaceEnabled = false

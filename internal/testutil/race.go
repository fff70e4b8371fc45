//go:build race

package testutil

// RaceEnabled reports whether the race detector is on. Under it a sync.Pool
// drops a random quarter of what is put back, so allocation counts of a
// pooled path do not hold; tests that bound them check the bound only
// without it.
const RaceEnabled = true

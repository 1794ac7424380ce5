//go:build race

package testutil

// RaceEnabled reports whether the test binary was built with -race.
// sync.Pool drops items on purpose under the race detector, so a test
// that puts an allocation ceiling on a pooled path skips when it is
// set.
const RaceEnabled = true

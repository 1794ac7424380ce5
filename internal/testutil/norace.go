//go:build !race

package testutil

// RaceEnabled reports whether the test binary was built with -race;
// see the race-tagged twin of this file.
const RaceEnabled = false

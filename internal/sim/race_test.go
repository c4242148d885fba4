//go:build race

package sim_test

// raceEnabled: the race detector is on, and byte counts are not the
// program's own.
const raceEnabled = true

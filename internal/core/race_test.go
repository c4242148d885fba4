//go:build race

package core_test

// raceEnabled: the race detector is on, and sync.Pool drops a quarter of
// its puts.
const raceEnabled = true

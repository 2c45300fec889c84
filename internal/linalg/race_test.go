//go:build race

package linalg_test

// raceEnabled reports that the race detector is on: its instrumentation
// of every matrix access makes a full-scale eigensolve 20x slower.
const raceEnabled = true

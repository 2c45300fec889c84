//go:build race

package core

// raceEnabled reports that the race detector is on: its instrumentation
// slows every stage several-fold, so wall-clock bounds skip under it.
const raceEnabled = true

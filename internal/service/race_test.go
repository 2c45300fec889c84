//go:build race

package service

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so the testing.AllocsPerRun guards skip under it.
const raceEnabled = true

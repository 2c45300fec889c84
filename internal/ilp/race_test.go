//go:build race

package ilp

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so the testing.AllocsPerRun guards skip under it.
const raceEnabled = true

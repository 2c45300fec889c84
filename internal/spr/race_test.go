//go:build race

package spr

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so the allocation guard skips.
const raceEnabled = true

//go:build race

package bench

// raceEnabled reports that the race detector is on: its instrumentation
// makes the II ensemble's 192 mapper runs several times slower.
const raceEnabled = true

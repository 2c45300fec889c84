//go:build !race

package ilp

const raceEnabled = false

//go:build !race

package spr

const raceEnabled = false

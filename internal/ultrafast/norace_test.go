//go:build !race

package ultrafast

const raceEnabled = false

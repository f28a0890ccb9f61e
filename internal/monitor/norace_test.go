//go:build !race

package monitor

const raceEnabled = false

//go:build !race

package fusion

const raceEnabled = false

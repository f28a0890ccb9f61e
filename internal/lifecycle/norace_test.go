//go:build !race

package lifecycle

const raceEnabled = false

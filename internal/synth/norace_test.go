//go:build !race

package synth

const raceEnabled = false

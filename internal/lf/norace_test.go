//go:build !race

package lf

const raceEnabled = false

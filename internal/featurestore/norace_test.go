//go:build !race

package featurestore

const raceEnabled = false

//go:build race

package lf

// raceEnabled gates allocation assertions: the race runtime allocates where
// a plain build does not.
const raceEnabled = true

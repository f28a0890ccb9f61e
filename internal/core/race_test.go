//go:build race

package core

// raceEnabled gates allocation assertions: the race runtime allocates where
// a plain build does not.
const raceEnabled = true

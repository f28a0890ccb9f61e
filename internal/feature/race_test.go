//go:build race

package feature

// raceEnabled gates allocation-count assertions: the race runtime drops
// sync.Pool items at random and allocates where a plain build does not.
const raceEnabled = true

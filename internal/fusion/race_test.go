//go:build race

package fusion

// raceEnabled gates allocation-count assertions: the race runtime
// instruments sync.Pool with extra allocations absent in production builds.
const raceEnabled = true

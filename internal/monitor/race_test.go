//go:build race

package monitor

// raceEnabled gates allocation-count assertions: the race runtime adds
// bookkeeping allocations absent in production builds.
const raceEnabled = true

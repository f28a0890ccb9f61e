//go:build race

package resource

// raceEnabled gates allocation-count assertions: the race runtime moves
// stack buffers to the heap and adds bookkeeping allocations absent in
// production builds.
const raceEnabled = true

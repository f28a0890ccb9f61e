// Package xrand provides a cheap, deterministic pseudo-random source for
// per-item RNG streams.
//
// The curation layer derives an independent RNG per data point, per
// observation channel, and per graph vertex. The legacy math/rand source
// seeds a 607-word lagged-Fibonacci state on construction — ~37% of a full
// pipeline run's CPU samples when a fresh source is built per item. The
// splitmix64 generator used here has a single uint64 of state, so
// construction is O(1), and its output mixing function decorrelates even
// sequential seeds, which makes it safe to derive stream seeds by hashing
// (seed ^ itemIndex)-style expressions. Each New call returns a private
// *rand.Rand, so per-goroutine use is race-free by construction.
//
// splitmix64 is the seeding generator recommended by Vigna
// (https://prng.di.unimi.it/splitmix64.c): a Weyl sequence with increment
// 0x9e3779b97f4a7c15 passed through a variant of the MurmurHash3 finalizer.
// It is deterministic and stable: the streams produced for a given seed are
// pinned by golden tests and must not change silently, since recorded
// experiment expectations depend on them.
package xrand

import (
	"math/rand"
	"sync"
)

// gamma is the golden-ratio Weyl increment of splitmix64.
const gamma = 0x9e3779b97f4a7c15

// Source is a splitmix64 generator implementing math/rand.Source64.
// The zero value is a valid source seeded with 0.
type Source struct {
	state uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a splitmix64 source for the given seed. Unlike the
// legacy math/rand source, construction is O(1).
func NewSource(seed int64) *Source {
	return &Source{state: uint64(seed)}
}

// New returns a *rand.Rand backed by a fresh splitmix64 source.
// It is the drop-in replacement for rand.New(rand.NewSource(seed)) on hot
// per-item paths.
func New(seed int64) *rand.Rand {
	// One object for the source and the Rand over it (rand.New inlines in place).
	g := &struct {
		src Source
		rnd rand.Rand
	}{src: Source{state: uint64(seed)}}
	g.rnd = *rand.New(&g.src)
	return &g.rnd
}

// pool recycles New's generators for Get.
var pool = sync.Pool{New: func() any { return New(0) }}

// Get returns a pooled generator seeded with seed. It draws exactly New(seed)'s
// stream whatever it drew before: rand.Rand.Seed resets the source's state and
// the Rand's own read position. A per-item path that would build one generator
// per item takes one here and hands it back with Put once its last draw is done.
func Get(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Put returns a generator that Get handed out; the caller draws no more from it.
func Put(r *rand.Rand) { pool.Put(r) }

// Uint64 advances the Weyl sequence and returns the mixed state.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return Mix(s.state)
}

// Int63 returns a non-negative 63-bit value (math/rand.Source).
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed resets the source to the given seed (math/rand.Source).
func (s *Source) Seed(seed int64) {
	s.state = uint64(seed)
}

// Mix applies the splitmix64 output mixing function: a bijective avalanche
// over uint64, useful on its own for deriving decorrelated sub-seeds from
// structured inputs (seed ^ index, hashed channel names, ...).
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash is the FNV-1a hash of s: the seed-independent half of HashString, so a
// caller that seeds the same named stream for many items hashes the name once.
func Hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashString folds s into seed with FNV-1a and mixes the result, producing
// a decorrelated sub-seed for a named stream (an observation channel, a
// stage name). The same (seed, s) pair always yields the same sub-seed.
func HashString(seed uint64, s string) uint64 { return Mix(seed ^ Hash(s)) }

// ShuffleInts permutes p exactly as rand.New(s).Shuffle(len(p), swap) would,
// draw for draw, without allocating a *rand.Rand or calling through a swap
// closure: a descending Fisher-Yates whose index comes from math/rand's
// frozen int31n — the top 32 bits of one draw (Rand.Uint32 is
// uint32(Int63()>>31), and Int63 is Uint64()>>1), multiply-shift, and the
// thresh rejection loop that removes the bias. Sampled candidate sets recorded in golden outputs depend
// on this equivalence; TestShuffleIntsMatchesMathRand pins it.
func (s *Source) ShuffleInts(p []int32) { s.ShuffleIntsDownTo(p, 1) }

// ShuffleIntsDownTo runs ShuffleInts's descending steps i = len(p)-1 … m
// only, with the same draws, and skips the rest. Every skipped step swaps two
// entries of p[:m], so p[:m] already holds, as a set, exactly what ShuffleInts
// leaves there: a draw-for-draw sample of m of p's entries, in another order.
// TestShuffleIntsDownToMatchesFull pins the equivalence.
func (s *Source) ShuffleIntsDownTo(p []int32, m int) {
	for i := len(p) - 1; i >= max(m, 1); i-- {
		n := uint32(i + 1)
		prod := (s.Uint64() >> 32) * uint64(n)
		if low := uint32(prod); low < n {
			for thresh := -n % n; low < thresh; low = uint32(prod) {
				prod = (s.Uint64() >> 32) * uint64(n)
			}
		}
		j := prod >> 32
		p[i], p[j] = p[j], p[i]
	}
}

// Package featurestore implements the precomputed-feature cache the paper's
// production setting assumes (§2.3, §6.2: "services we use are pre-computed
// for each data point as the generated features assist teams across the
// organization", under per-team storage budgets). The store memoizes
// featurization results under a capacity bound with LRU eviction; the
// persistent, disk-backed store is featurestore/disk.
package featurestore

import (
	"context"
	"fmt"
	"math"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// Store is a bounded, concurrency-safe cache of featurized data points in
// front of a resource library. The zero value is not usable; call New.
//
// Concurrency: all cache state is guarded by mu, and cached *feature.Vector
// values are shared across callers, who must treat them as read-only (every
// in-repo consumer does: vectorization and similarity only read). Misses
// are computed outside the lock and are not coalesced across calls: two
// goroutines that miss on the same point at once — two concurrent /predict
// requests, say — both featurize it, compute the same bits (featurization is
// deterministic in the point), and the later insert replaces the earlier.
// Within one call a repeated point is featurized once.
//
// Ownership: a cached vector outlives the request that computed it, so it
// owns its payload — its own values and nothing of the batch it arrived in.
type Store struct {
	lib      *resource.Library
	capacity int

	mu         sync.Mutex
	entries    map[Key]int32 // point → its slot in the slab
	pages      [][]entry     // the slab: slot i is pages[i/pageSlots][i%pageSlots]
	head, tail int32         // most and least recently used slot, -1 when empty
	hits       int
	misses     int
	evicted    int
	coalesced  int
}

// Key is the cache key: a point's rendering. One ID names one entity, but
// its modality and frame count change what the resources observe, so two
// renderings of an ID are two vectors.
type Key struct {
	ID       int
	Modality synth.Modality
	Frames   int
}

func keyOf(p *synth.Point) Key { return Key{p.ID, p.Modality, p.Frames} }

// entry is one slot of the store's slab, linked to its neighbours in
// recency order by slot index (-1 ends the list). A full store reuses its
// least recently used slot for the next insert, so a steady-state insert
// allocates nothing for its entry.
type entry struct {
	key        Key
	vec        *feature.Vector
	prev, next int32
}

// pageSlots is how many slots one page of the slab holds. The slab grows a
// page at a time, so a store allocates only for about as many entries as it
// holds, and no growth copies an entry.
const pageSlots = 1024

// slot returns slot i's entry.
func (s *Store) slot(i int32) *entry { return &s.pages[i/pageSlots][i%pageSlots] }

// New builds a store over lib holding at most capacity vectors (capacity <=
// 0 means unbounded). A slot is an int32 index, so capacity is at most
// math.MaxInt32.
func New(lib *resource.Library, capacity int) (*Store, error) {
	if lib == nil {
		return nil, fmt.Errorf("featurestore: nil library")
	}
	if capacity > math.MaxInt32 {
		return nil, fmt.Errorf("featurestore: capacity %d above %d", capacity, math.MaxInt32)
	}
	return &Store{lib: lib, capacity: capacity, entries: make(map[Key]int32), head: -1, tail: -1}, nil
}

// Library returns the wrapped resource library.
func (s *Store) Library() *resource.Library { return s.lib }

// Len returns the number of cached vectors.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats reports cache effectiveness counters.
func (s *Store) Stats() (hits, misses, evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evicted
}

// Coalesced reports how many misses repeated a point already missed in the
// same Featurize call, and so shared its featurization.
func (s *Store) Coalesced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coalesced
}

// insertLocked stores a vector under a point key, evicting the least
// recently used entry when over capacity. The caller holds s.mu.
func (s *Store) insertLocked(key Key, vec *feature.Vector) {
	if i, ok := s.entries[key]; ok {
		s.slot(i).vec = vec
		s.touchLocked(i)
		return
	}
	// Every slot holds a live key, so the entry count is the next free slot.
	i := int32(len(s.entries))
	if s.capacity > 0 && len(s.entries) >= s.capacity {
		i = s.tail
		s.unlinkLocked(i)
		delete(s.entries, s.slot(i).key)
		s.evicted++
	} else if i%pageSlots == 0 {
		n := pageSlots
		if s.capacity > 0 {
			n = min(n, s.capacity-int(i)) // the last page holds what the capacity leaves
		}
		s.pages = append(s.pages, make([]entry, n))
	}
	e := s.slot(i)
	e.key, e.vec = key, vec
	s.entries[key] = i
	s.pushFrontLocked(i)
}

// touchLocked marks slot i most recently used. The caller holds s.mu.
func (s *Store) touchLocked(i int32) {
	if s.head != i {
		s.unlinkLocked(i)
		s.pushFrontLocked(i)
	}
}

// unlinkLocked takes slot i out of the recency list. The caller holds s.mu.
func (s *Store) unlinkLocked(i int32) {
	e := s.slot(i)
	if e.prev >= 0 {
		s.slot(e.prev).next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slot(e.next).prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFrontLocked links slot i in as the most recently used. The caller
// holds s.mu.
func (s *Store) pushFrontLocked(i int32) {
	e := s.slot(i)
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slot(s.head).prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// Featurize returns feature vectors for pts, computing only cache misses
// (in parallel) and memoizing them. A point's ID, modality and frame count
// key the cache, so that triple must name one point across everything
// featurized through one store — true for points sampled from one
// synth.Dataset and for serve traffic, whose point is its request's (id,
// modality, frames), but not for the two mixed: a dataset draws its entities
// from its own stream, so a serving store admits only server-derived points.
// A key that misses more than once in one call is featurized once and its
// repeats count as coalesced. Misses run in mapreduce blocks, one generator
// per block, and each missed vector owns its payload. A nil ctx is treated
// as context.Background(); a canceled ctx fails the call and caches nothing.
func (s *Store) Featurize(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) ([]*feature.Vector, error) {
	return s.featurize(ctx, cfg, len(pts),
		func(i int) Key { return keyOf(pts[i]) },
		func(i int) *synth.Point { return pts[i] })
}

// FeaturizeKeys is Featurize for a caller that holds keys, not points: it
// calls point(i) only for a keys[i] that misses, once per distinct missed
// key and outside the store's lock, and the point must render keys[i].
func (s *Store) FeaturizeKeys(ctx context.Context, cfg mapreduce.Config, keys []Key, point func(i int) *synth.Point) ([]*feature.Vector, error) {
	return s.featurize(ctx, cfg, len(keys), func(i int) Key { return keys[i] }, point)
}

// scanMisses is how many distinct misses one call dedupes by a scan before
// it indexes them in a map: a request-sized batch builds no map, and a large
// miss batch stays linear.
const scanMisses = 64

// featurize is the one lookup, coalescing and insert body behind Featurize
// and FeaturizeKeys: request i has key key(i), and point(i) renders it.
func (s *Store) featurize(ctx context.Context, cfg mapreduce.Config, n int, key func(i int) Key, point func(i int) *synth.Point) ([]*feature.Vector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "featurestore.featurize")
	defer span.End()
	span.Add("points", int64(n))
	out := make([]*feature.Vector, n)
	var (
		miss  []missed    // distinct missed keys, computed below
		slot  map[Key]int // missed key → its index in miss, once miss outgrows a scan
		fills []fill      // every missed lookup
	)
	s.mu.Lock()
	for i := 0; i < n; i++ {
		k := key(i)
		if j, ok := s.entries[k]; ok {
			s.hits++
			s.touchLocked(j)
			out[i] = s.slot(j).vec
			continue
		}
		s.misses++
		if miss == nil { // the first miss sizes the bookkeeping for the rest
			miss = make([]missed, 0, n-i)
			fills = make([]fill, 0, n-i)
		}
		j := indexOf(miss, slot, k)
		if j >= 0 {
			s.coalesced++
		} else {
			j = len(miss)
			miss = append(miss, missed{key: k, at: i})
			switch {
			case slot != nil:
				slot[k] = j
			case len(miss) > scanMisses:
				slot = make(map[Key]int, len(miss)+n-i)
				for j, m := range miss {
					slot[m.key] = j
				}
			}
		}
		fills = append(fills, fill{out: i, miss: j})
	}
	s.mu.Unlock()
	span.Add("misses", int64(len(miss)))
	span.Add("coalesced", int64(len(fills)-len(miss)))
	span.Add("hits", int64(n-len(fills)))
	if len(miss) == 0 {
		return out, nil
	}
	for j := range miss {
		miss[j].p = point(miss[j].at)
	}
	// Point by point, never Library.Featurize: a cached vector outlives its
	// request, so each owns its payload rather than pinning a batch slab.
	// Only the generator is shared, one per block. Polling Done before every
	// point stops a canceled block early, and Blocks then fails the call.
	vecs := make([]*feature.Vector, len(miss))
	err := mapreduce.Blocks(ctx, cfg, len(miss), func(ctx context.Context, lo, hi int) error {
		rng, done := xrand.New(0), ctx.Done()
		for j := lo; j < hi; j++ {
			select {
			case <-done:
				return nil
			default:
			}
			vecs[j] = s.lib.FeaturizePointWith(miss[j].p, rng)
		}
		return nil
	})
	if err != nil { // context cancellation: nothing is cached
		return nil, err
	}
	s.mu.Lock()
	for j, m := range miss {
		s.insertLocked(m.key, vecs[j])
	}
	s.mu.Unlock()
	for _, f := range fills {
		out[f.out] = vecs[f.miss]
	}
	return out, nil
}

// missed is one distinct missed key, the first request that named it, and
// the point that request renders.
type missed struct {
	key Key
	at  int
	p   *synth.Point
}

// indexOf returns k's index in miss, or -1: through slot once it exists,
// else by a scan.
func indexOf(miss []missed, slot map[Key]int, k Key) int {
	if slot != nil {
		if j, ok := slot[k]; ok {
			return j
		}
		return -1
	}
	for j := range miss {
		if miss[j].key == k {
			return j
		}
	}
	return -1
}

// fill is one missed lookup: the out position and the miss that fills it.
type fill struct{ out, miss int }

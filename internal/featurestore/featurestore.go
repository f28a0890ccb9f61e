// Package featurestore implements the precomputed-feature cache the paper's
// production setting assumes (§2.3, §6.2: "services we use are pre-computed
// for each data point as the generated features assist teams across the
// organization", under per-team storage budgets). The store memoizes
// featurization results under a capacity bound with LRU eviction; the
// persistent, disk-backed store is featurestore/disk.
package featurestore

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
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

	mu        sync.Mutex
	entries   map[pointKey]*list.Element // point → LRU element
	lru       *list.List                 // front = most recent
	hits      int
	misses    int
	evicted   int
	coalesced int
}

// pointKey is the cache key: a point's rendering. One ID names one entity,
// but its modality and frame count change what the resources observe, so
// two renderings of an ID are two vectors.
type pointKey struct {
	id       int
	modality synth.Modality
	frames   int
}

func keyOf(p *synth.Point) pointKey { return pointKey{p.ID, p.Modality, p.Frames} }

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key pointKey
	vec *feature.Vector
}

// New builds a store over lib holding at most capacity vectors (capacity <=
// 0 means unbounded).
func New(lib *resource.Library, capacity int) (*Store, error) {
	if lib == nil {
		return nil, fmt.Errorf("featurestore: nil library")
	}
	return &Store{
		lib:      lib,
		capacity: capacity,
		entries:  make(map[pointKey]*list.Element),
		lru:      list.New(),
	}, nil
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
func (s *Store) insertLocked(key pointKey, vec *feature.Vector) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).vec = vec
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, vec: vec})
	if s.capacity > 0 && s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		s.evicted++
	}
}

// Featurize returns feature vectors for pts, computing only cache misses
// (in parallel) and memoizing them. A point's ID, modality and frame count
// key the cache, so that triple must name one point across everything
// featurized through one store — true for points sampled from one
// synth.Dataset and for serve traffic, whose point is its request's (id,
// modality, frames), but not for the two mixed: a dataset draws its entities
// from its own stream, so a serving store admits only server-derived points.
// A key that misses more than once in one call is featurized once and its
// repeats count as coalesced. A nil ctx is treated as context.Background();
// a canceled ctx fails the call and caches nothing.
func (s *Store) Featurize(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) ([]*feature.Vector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "featurestore.featurize")
	defer span.End()
	span.Add("points", int64(len(pts)))
	out := make([]*feature.Vector, len(pts))
	var (
		miss   []*synth.Point   // distinct missed keys, computed below
		slot   map[pointKey]int // missed key → its index in miss
		outIdx []int            // out position of every missed lookup ...
		missOf []int            // ... and the miss that fills it
	)
	s.mu.Lock()
	for i, p := range pts {
		key := keyOf(p)
		if el, ok := s.entries[key]; ok {
			s.hits++
			s.lru.MoveToFront(el)
			out[i] = el.Value.(*cacheEntry).vec
			continue
		}
		s.misses++
		j, ok := slot[key]
		if ok {
			s.coalesced++
		} else {
			if slot == nil {
				slot = make(map[pointKey]int)
			}
			j = len(miss)
			slot[key] = j
			miss = append(miss, p)
		}
		outIdx = append(outIdx, i)
		missOf = append(missOf, j)
	}
	s.mu.Unlock()
	span.Add("misses", int64(len(miss)))
	span.Add("coalesced", int64(len(outIdx)-len(miss)))
	span.Add("hits", int64(len(pts)-len(outIdx)))
	if len(miss) == 0 {
		return out, nil
	}
	// Point by point, never Library.Featurize: a cached vector outlives its
	// request, so it owns its payload rather than pinning a batch slab.
	vecs, err := mapreduce.Map(ctx, cfg, miss, func(p *synth.Point) (*feature.Vector, error) {
		return s.lib.FeaturizePoint(p), nil
	})
	if err != nil { // context cancellation: nothing is cached
		return nil, err
	}
	s.mu.Lock()
	for j, p := range miss {
		s.insertLocked(keyOf(p), vecs[j])
	}
	s.mu.Unlock()
	for k, i := range outIdx {
		out[i] = vecs[missOf[k]]
	}
	return out, nil
}

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
	"time"

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
	ttl      time.Duration    // 0 = entries never go stale
	now      func() time.Time // clock seam for TTL tests

	mu        sync.Mutex
	entries   map[pointKey]*list.Element // point → LRU element
	lru       *list.List                 // front = most recent
	hits      int
	misses    int
	evicted   int
	coalesced int
	stale     uint64 // stale vectors served because recomputation failed
	degraded  uint64 // vectors served with failed channels missing
}

// Options configures a store beyond the library it fronts.
type Options struct {
	// Capacity bounds the cache (<= 0 means unbounded).
	Capacity int
	// TTL makes cached vectors stale after this age: a stale hit triggers
	// recomputation, but on resource failure the stale copy is served
	// instead (counted by StaleServed). 0 disables staleness — every hit is
	// fresh forever, exactly the pre-degradation behavior.
	TTL time.Duration
	// Now is the clock used for TTL decisions (nil = time.Now).
	Now func() time.Time
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
	key      pointKey
	vec      *feature.Vector
	storedAt time.Time // zero unless the store has a TTL
}

// New builds a store over lib holding at most capacity vectors (capacity <=
// 0 means unbounded).
func New(lib *resource.Library, capacity int) (*Store, error) {
	return NewWithOptions(lib, Options{Capacity: capacity})
}

// NewWithOptions builds a store over lib under opts.
func NewWithOptions(lib *resource.Library, opts Options) (*Store, error) {
	if lib == nil {
		return nil, fmt.Errorf("featurestore: nil library")
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Store{
		lib:      lib,
		capacity: opts.Capacity,
		ttl:      opts.TTL,
		now:      now,
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

// StaleServed reports how many requests were answered with a stale cached
// vector because recomputing it through the resources failed.
func (s *Store) StaleServed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stale
}

// DegradedServed reports how many requests were answered with a vector
// whose failed channels are missing (some service calls failed, no stale
// copy existed). Degraded vectors are never cached.
func (s *Store) DegradedServed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// insertLocked stores a vector under a point key, evicting the least
// recently used entry when over capacity. The caller holds s.mu.
func (s *Store) insertLocked(key pointKey, vec *feature.Vector) {
	var at time.Time
	if s.ttl > 0 {
		at = s.now()
	}
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.vec = vec
		ent.storedAt = at
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, vec: vec, storedAt: at})
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
// repeats count as coalesced. A nil ctx is treated as context.Background().
//
// When the library is guarded (resource.Library.WithGuards), failures
// degrade gracefully per point: a stale cached vector (older than TTL) is
// served if recomputation fails; otherwise the vector is returned with its
// failed channels missing (resource.Checked.Failed names them), counted by
// DegradedServed and not cached. Only a point with no surviving channels and
// no stale copy fails the call — its error wraps resource.ErrUnavailable, plus
// resource.ErrBreakerOpen when a breaker caused it.
func (s *Store) Featurize(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) ([]*feature.Vector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "featurestore.featurize")
	defer span.End()
	span.Add("points", int64(len(pts)))
	out := make([]*feature.Vector, len(pts))
	var (
		miss   []*synth.Point    // distinct missed keys, computed below
		stale  []*feature.Vector // each miss's stale fallback, or nil
		slot   map[pointKey]int  // missed key → its index in miss
		outIdx []int             // out position of every missed lookup ...
		missOf []int             // ... and the miss that fills it
	)
	s.mu.Lock()
	for i, p := range pts {
		var staleVec *feature.Vector
		key := keyOf(p)
		if el, ok := s.entries[key]; ok {
			ent := el.Value.(*cacheEntry)
			if s.ttl <= 0 || s.now().Sub(ent.storedAt) <= s.ttl {
				s.hits++
				s.lru.MoveToFront(el)
				out[i] = ent.vec
				continue
			}
			// Past TTL: recompute, but keep the old vector as the
			// degradation fallback.
			staleVec = ent.vec
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
			stale = append(stale, staleVec)
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
	vecs, err := s.computeMisses(ctx, cfg, miss, stale)
	if err != nil {
		return nil, err
	}
	for k, i := range outIdx {
		out[i] = vecs[missOf[k]]
	}
	return out, nil
}

// computeMisses featurizes miss, caches the clean results and returns one
// vector per miss, or the error the whole Featurize call fails with.
func (s *Store) computeMisses(ctx context.Context, cfg mapreduce.Config, miss []*synth.Point, stale []*feature.Vector) ([]*feature.Vector, error) {
	// The checked path featurizes point by point — on an unguarded library
	// it is exactly FeaturizePoint — never Library.Featurize: a cached vector
	// outlives its request, so it owns its payload rather than pinning a
	// batch slab.
	checked, err := s.lib.FeaturizeChecked(ctx, cfg, miss)
	if err != nil { // context cancellation: nothing was computed
		return nil, err
	}
	vecs := make([]*feature.Vector, len(miss))
	var firstErr error
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, c := range checked {
		key := keyOf(miss[j])
		switch {
		case (c.Err != nil || len(c.Failed) > 0) && stale[j] != nil:
			// A complete stale vector beats a failure or a freshly degraded
			// one. Keep the entry warm in the LRU but leave storedAt alone:
			// it stays stale, so the next access retries the resources.
			s.stale++
			vecs[j] = stale[j]
			if el, ok := s.entries[key]; ok {
				s.lru.MoveToFront(el)
			}
		case c.Err != nil:
			if firstErr == nil {
				firstErr = c.Err
			}
		case len(c.Failed) > 0:
			s.degraded++
			vecs[j] = c.Vec
			// Not cached: a later retry may well produce the full vector.
		default:
			vecs[j] = c.Vec
			s.insertLocked(key, c.Vec)
		}
	}
	return vecs, firstErr
}

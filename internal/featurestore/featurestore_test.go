package featurestore

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

var (
	envOnce sync.Once
	envLib  *resource.Library
	envPts  []*synth.Point
	envErr  error
)

func env(t *testing.T) (*resource.Library, []*synth.Point) {
	t.Helper()
	envOnce.Do(func() {
		world := synth.MustWorld(synth.DefaultConfig())
		envLib, envErr = resource.StandardLibrary(world)
		if envErr != nil {
			return
		}
		task, err := synth.TaskByName("CT1")
		if err != nil {
			envErr = err
			return
		}
		ds, err := synth.BuildDataset(world, task, synth.DatasetConfig{
			Seed: 3, NumText: 200, NumUnlabeledImage: 100, NumHandLabelPool: 1, NumTest: 1,
		})
		if err != nil {
			envErr = err
			return
		}
		envPts = append(ds.LabeledText, ds.UnlabeledImage...)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envLib, envPts
}

// TestFeaturizeCachesAndMatchesLibrary: a miss must hand back exactly what
// Library.FeaturizePoint computes, and the store caches all of it.
func TestFeaturizeCachesAndMatchesLibrary(t *testing.T) {
	lib, pts := env(t)
	store, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{Workers: 4}
	first, err := store.Featurize(ctx, cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := store.Stats()
	if hits != 0 || misses != len(pts) {
		t.Errorf("cold pass: hits=%d misses=%d", hits, misses)
	}
	second, err := store.Featurize(ctx, cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _ = store.Stats()
	if hits != len(pts) {
		t.Errorf("warm pass hits = %d, want %d", hits, len(pts))
	}
	for i := range pts {
		if first[i] != second[i] {
			t.Fatal("warm pass returned a different vector instance")
		}
		if want := lib.FeaturizePoint(pts[i]); !first[i].Equal(want) {
			t.Fatalf("cached vector differs from direct featurization for point %d", pts[i].ID)
		}
	}
	if store.Len() != len(pts) {
		t.Errorf("store cached %d of %d vectors", store.Len(), len(pts))
	}
}

// TestCanceledMissCachesNothing: a Featurize call whose ctx is already
// canceled fails with context.Canceled and leaves the cache as it was, so a
// later live call misses on every point.
func TestCanceledMissCachesNothing(t *testing.T) {
	lib, pts := env(t)
	store, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.Config{Workers: 4}
	mustFeaturize(t, store, context.Background(), cfg, pts[:10])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cold := pts[10:]
	if _, err := store.Featurize(ctx, cfg, cold); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Featurize: err = %v, want context.Canceled", err)
	}
	if store.Len() != 10 {
		t.Fatalf("canceled Featurize left %d cached vectors, want 10", store.Len())
	}
	_, missesBefore, _ := store.Stats()
	mustFeaturize(t, store, context.Background(), cfg, cold)
	if hits, misses, _ := store.Stats(); misses-missesBefore != len(cold) || hits != 0 {
		t.Errorf("live call after a canceled one: %d misses, %d hits; want %d misses, 0 hits",
			misses-missesBefore, hits, len(cold))
	}
}

func TestCapacityEviction(t *testing.T) {
	lib, pts := env(t)
	store, err := New(lib, 50)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := store.Featurize(ctx, mapreduce.Config{}, pts); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 50 {
		t.Errorf("cache size = %d, want capacity 50", store.Len())
	}
	_, _, evicted := store.Stats()
	if evicted != len(pts)-50 {
		t.Errorf("evicted = %d, want %d", evicted, len(pts)-50)
	}
}

func TestLRUOrdering(t *testing.T) {
	lib, pts := env(t)
	store, err := New(lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := mapreduce.Config{}
	a, b, c := pts[0:1], pts[1:2], pts[2:3]
	mustFeaturize(t, store, ctx, cfg, a) // cache: [a]
	mustFeaturize(t, store, ctx, cfg, b) // cache: [b a]
	mustFeaturize(t, store, ctx, cfg, a) // cache: [a b]
	mustFeaturize(t, store, ctx, cfg, c) // evicts b
	hitsBefore, _, _ := store.Stats()
	mustFeaturize(t, store, ctx, cfg, a)
	hitsAfter, _, _ := store.Stats()
	if hitsAfter != hitsBefore+1 {
		t.Error("a should still be cached (was most recently used)")
	}
	_, missesBefore, _ := store.Stats()
	mustFeaturize(t, store, ctx, cfg, b)
	_, missesAfter, _ := store.Stats()
	if missesAfter != missesBefore+1 {
		t.Error("b should have been evicted")
	}
}

// TestLRUMatchesReference: random inserts and hits leave the store's slab
// recency list, walked both ways, in the order a move-to-front slice keeps,
// and evict the keys that slice drops — on one short page and across a full
// page into a short last one.
func TestLRUMatchesReference(t *testing.T) {
	lib, pts := env(t)
	vec := lib.FeaturizePoint(pts[0])
	for _, capacity := range []int{5, pageSlots + 5} {
		s, err := New(lib, capacity)
		if err != nil {
			t.Fatal(err)
		}
		keys := capacity + capacity/2 + 2
		var ref, fwd, back []Key // ref most recent first
		evicted := 0
		rng := rand.New(rand.NewSource(7))
		for op := 0; op < 4*keys; op++ {
			k := Key{ID: rng.Intn(keys), Modality: synth.Image}
			at := slices.Index(ref, k)
			s.mu.Lock()
			if i, ok := s.entries[k]; ok && rng.Intn(2) == 0 {
				s.touchLocked(i) // the hit path
			} else {
				s.insertLocked(k, vec)
				if at < 0 && len(ref) == capacity {
					ref = ref[:capacity-1]
					evicted++
				}
			}
			if at >= 0 {
				ref = slices.Delete(ref, at, at+1)
			}
			ref = slices.Insert(ref, 0, k)
			fwd, back = fwd[:0], back[:0]
			for i := s.head; i >= 0; i = s.slot(i).next {
				fwd = append(fwd, s.slot(i).key)
			}
			for i := s.tail; i >= 0; i = s.slot(i).prev {
				back = append(back, s.slot(i).key)
			}
			s.mu.Unlock()
			slices.Reverse(back)
			if !slices.Equal(fwd, ref) || !slices.Equal(back, ref) || s.Len() != len(ref) {
				t.Fatalf("capacity %d, op %d: head→tail %v, tail→head %v, %d entries; reference %v", capacity, op, fwd, back, s.Len(), ref)
			}
		}
		if _, _, got := s.Stats(); got != evicted || evicted == 0 {
			t.Errorf("capacity %d: evicted %d, reference %d", capacity, got, evicted)
		}
	}
}

func mustFeaturize(t *testing.T, s *Store, ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) {
	t.Helper()
	if _, err := s.Featurize(ctx, cfg, pts); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("expected error for nil library")
	}
	lib, _ := env(t)
	over := math.MaxInt32
	over++ // wraps negative, which is unbounded, where int has 32 bits
	if _, err := New(lib, over); over > 0 && err == nil {
		t.Error("expected error for a capacity past an int32 slot index")
	}
}

func TestConcurrentFeaturize(t *testing.T) {
	lib, pts := env(t)
	store, _ := New(lib, 100)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slice := pts[(g*17)%len(pts):]
			if len(slice) > 60 {
				slice = slice[:60]
			}
			if _, err := store.Featurize(ctx, mapreduce.Config{Workers: 2}, slice); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachedVectorOwnsItsPayload: the ownership rule. After one request for
// a full 1 024-point batch, every cached vector's payload holds exactly its
// own categories and embedding floats — no entry pins a slab of the request's
// other points.
func TestCachedVectorOwnsItsPayload(t *testing.T) {
	lib, _ := env(t)
	task, err := synth.TaskByName("CT1")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.BuildDataset(lib.World(), task, synth.DatasetConfig{
		Seed: 8, NumText: 512, NumUnlabeledImage: 512, NumHandLabelPool: 1, NumTest: 1, CalibrationSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := append(append([]*synth.Point{}, ds.LabeledText...), ds.UnlabeledImage...)
	s, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Featurize(context.Background(), mapreduce.Config{Workers: 2}, pts); err != nil {
		t.Fatal(err)
	}
	cached, err := s.Featurize(context.Background(), mapreduce.Config{Workers: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := s.Stats(); hits != len(pts) {
		t.Fatalf("%d hits on the second pass, want %d", hits, len(pts))
	}
	for k, v := range cached {
		var ids, embs int
		for i := 0; i < v.Schema().Len(); i++ {
			// a value's IDs in written order, and its sorted set when it has several
			if n := len(v.CategoryList(i)); n > 1 {
				ids += n + len(v.CategoryIDs(i))
			} else {
				ids += n
			}
			embs += len(v.Vec(i))
		}
		if gotIDs, gotEmbs := v.PayloadLen(); gotIDs != ids || gotEmbs != embs {
			t.Fatalf("cached vector %d keeps a payload of %d category IDs / %d floats alive, its own values are %d / %d",
				k, gotIDs, gotEmbs, ids, embs)
		}
	}
}

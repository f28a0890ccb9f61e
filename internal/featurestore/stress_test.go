package featurestore

import (
	"context"
	"sync"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// stressPoints samples n image points with IDs [0, n).
func stressPoints(t *testing.T, world *synth.World, n int) []*synth.Point {
	t.Helper()
	rng := xrand.New(99)
	pts := make([]*synth.Point, n)
	for i := range pts {
		e := world.SampleEntity(rng, synth.Image, i)
		pts[i] = &synth.Point{ID: i, Entity: e, Modality: synth.Image, Seed: xrand.Mix(uint64(i) ^ 0xbeef)}
	}
	return pts
}

// TestFeaturizeConcurrentStress hammers one store from many goroutines with
// overlapping point ranges under a small capacity, the access pattern the
// serving path creates (many HTTP handlers featurizing live traffic through
// one store). Run under -race via `make gate-full`. Every returned vector must
// equal the library's direct featurization, and the counters must balance.
func TestFeaturizeConcurrentStress(t *testing.T) {
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		t.Fatal(err)
	}
	const nPoints = 120
	pts := stressPoints(t, world, nPoints)
	// Direct featurization is deterministic, so it is the ground truth.
	want, err := lib.Featurize(context.Background(), mapreduce.Config{Workers: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}

	store, err := New(lib, 48) // small capacity: constant eviction churn
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(int64(g) + 1)
			for r := 0; r < rounds; r++ {
				// Overlapping windows so goroutines contend on the same IDs.
				lo := rng.Intn(nPoints - 20)
				batch := pts[lo : lo+20]
				got, err := store.Featurize(context.Background(), mapreduce.Config{Workers: 1}, batch)
				if err != nil {
					errCh <- err
					return
				}
				for i, vec := range got {
					id := batch[i].ID
					if vec.String() != want[id].String() {
						t.Errorf("goroutine %d round %d: point %d diverged", g, r, id)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	hits, misses, evicted := store.Stats()
	total := goroutines * rounds * 20
	if hits+misses != total {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, total)
	}
	if evicted == 0 {
		t.Error("expected eviction churn at capacity 48 over 120 points")
	}
	if store.Len() > 48 {
		t.Errorf("store holds %d entries, capacity 48", store.Len())
	}
	// Coalescing is scheduling-dependent, but the counter must never exceed
	// total misses.
	if c := store.Coalesced(); c > misses {
		t.Errorf("coalesced %d > misses %d", c, misses)
	}
}

// TestFeaturizeCoalescesDuplicateMisses pins the coalescing path: a batch
// containing the same point twice must count one owned miss and one
// coalesced miss, and return identical vectors for both slots.
func TestFeaturizeCoalescesDuplicateMisses(t *testing.T) {
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := stressPoints(t, world, 1)
	got, err := store.Featurize(context.Background(), mapreduce.Config{Workers: 1}, []*synth.Point{pts[0], pts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != got[1] {
		t.Error("duplicate IDs in one batch should share the computed vector")
	}
	if c := store.Coalesced(); c != 1 {
		t.Errorf("coalesced = %d, want 1", c)
	}
	if hits, misses, _ := store.Stats(); hits != 0 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2", hits, misses)
	}
}

// TestConcurrentColdMissesAgree: misses are not coalesced across calls, so
// callers that miss on the same cold keys at once each featurize them. Every
// caller must still get vectors Equal to the library's, the counters must
// balance, and no caller may wait on another (run with -race -count=20).
func TestConcurrentColdMissesAgree(t *testing.T) {
	lib, pts := env(t)
	pts = pts[:16]
	want := make([]*feature.Vector, len(pts))
	for i, p := range pts {
		want[i] = lib.FeaturizePoint(p)
	}
	store, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([][]*feature.Vector, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = store.Featurize(context.Background(), mapreduce.Config{Workers: 2}, pts)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for i, v := range got[g] {
			if !v.Equal(want[i]) {
				t.Fatalf("caller %d: point %d differs from the library's vector", g, pts[i].ID)
			}
		}
	}
	if hits, misses, _ := store.Stats(); hits+misses != callers*len(pts) {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, callers*len(pts))
	}
	if store.Len() != len(pts) || store.Coalesced() != 0 {
		t.Errorf("store holds %d entries (want %d), coalesced %d (want 0: no key repeats within a call)",
			store.Len(), len(pts), store.Coalesced())
	}
}

package featurestore

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// keysOf returns pts' cache keys.
func keysOf(pts []*synth.Point) []Key {
	keys := make([]Key, len(pts))
	for i, p := range pts {
		keys[i] = keyOf(p)
	}
	return keys
}

// TestFeaturizeKeysDerivesOnlyMisses: the key-based read never derives a
// point that hits, and derives each distinct missed key once, however often
// the request repeats it.
func TestFeaturizeKeysDerivesOnlyMisses(t *testing.T) {
	lib, pts := env(t)
	store, err := New(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cfg := context.Background(), mapreduce.Config{Workers: 2}
	mustFeaturize(t, store, ctx, cfg, pts[:20])
	// pts[:20] hit; pts[20:40] miss, each named twice.
	req := append(append(append([]*synth.Point{}, pts[:20]...), pts[20:40]...), pts[20:40]...)
	calls := make([]int, len(req))
	got, err := store.FeaturizeKeys(ctx, cfg, keysOf(req), func(i int) *synth.Point {
		calls[i]++
		return req[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		if want := btoi(i >= 20 && i < 40); c != want {
			t.Errorf("request %d (point %d) derived %d times, want %d", i, req[i].ID, c, want)
		}
	}
	if hits, misses, _ := store.Stats(); hits != 20 || misses != 20+40 {
		t.Errorf("hits=%d misses=%d, want 20 / 60", hits, misses)
	}
	if c := store.Coalesced(); c != 20 {
		t.Errorf("coalesced = %d, want 20", c)
	}
	for i := 20; i < 40; i++ {
		if got[i] != got[i+20] {
			t.Fatalf("point %d: its two lookups got different vectors", req[i].ID)
		}
		if !got[i].Equal(lib.FeaturizePoint(req[i])) {
			t.Fatalf("point %d: derived vector differs from the library's", req[i].ID)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFeaturizeKeysMatchesFeaturize: Featurize(pts) is the key-based read
// with pts as the point source — the same vectors bit for bit and the same
// counters, through a warm-up, evictions, and a repeat-laden batch with more
// distinct misses than a scan dedupes.
func TestFeaturizeKeysMatchesFeaturize(t *testing.T) {
	lib, pts := env(t)
	byPts, err := New(lib, 150)
	if err != nil {
		t.Fatal(err)
	}
	byKeys, err := New(lib, 150)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cfg := context.Background(), mapreduce.Config{Workers: 2}
	for _, req := range [][]*synth.Point{
		pts[:40],
		append(append([]*synth.Point{}, pts...), pts[100:220]...),
		pts[10:90],
	} {
		want, err := byPts.Featurize(ctx, cfg, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := byKeys.FeaturizeKeys(ctx, cfg, keysOf(req), func(i int) *synth.Point { return req[i] })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) || got[i].String() != want[i].String() {
				t.Fatalf("%d-point request, point %d: key-based read differs from Featurize", len(req), req[i].ID)
			}
		}
		h1, m1, e1 := byPts.Stats()
		h2, m2, e2 := byKeys.Stats()
		if h1 != h2 || m1 != m2 || e1 != e2 || byPts.Coalesced() != byKeys.Coalesced() || byPts.Len() != byKeys.Len() {
			t.Fatalf("%d-point request: Featurize counts %d/%d/%d/%d, key-based read %d/%d/%d/%d (hits/misses/evicted/coalesced)",
				len(req), h1, m1, e1, byPts.Coalesced(), h2, m2, e2, byKeys.Coalesced())
		}
	}
}

// TestFeaturizeCoalescesPastScan: coalescing counts stay exact on both sides
// of the switch from a scan to a map, for repeats that follow their first
// miss at once and for repeats that come after every first miss.
func TestFeaturizeCoalescesPastScan(t *testing.T) {
	lib, _ := env(t)
	const k = 2*scanMisses + 9
	pts := stressPoints(t, lib.World(), k)
	interleaved := make([]*synth.Point, 0, 2*k)
	for _, p := range pts {
		interleaved = append(interleaved, p, p)
	}
	for name, req := range map[string][]*synth.Point{
		"interleaved": interleaved,
		"appended":    append(append([]*synth.Point{}, pts...), pts...),
	} {
		store, err := New(lib, 0)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		got, err := store.FeaturizeKeys(context.Background(), mapreduce.Config{Workers: 1}, keysOf(req),
			func(i int) *synth.Point { calls++; return req[i] })
		if err != nil {
			t.Fatal(err)
		}
		if calls != k || store.Coalesced() != k || store.Len() != k {
			t.Errorf("%s: %d derivations, %d coalesced, %d cached; want %d each", name, calls, store.Coalesced(), store.Len(), k)
		}
		first := map[int]*feature.Vector{}
		for i, v := range got {
			if w, ok := first[req[i].ID]; !ok {
				first[req[i].ID] = v
			} else if v != w {
				t.Fatalf("%s: point %d's lookups got different vectors", name, req[i].ID)
			}
		}
	}
}

// TestFeaturizeKeysConcurrent: many goroutines read overlapping, repeating
// key batches through one small store. Every vector equals the library's,
// and the derivations across all callers are exactly the distinct misses:
// misses less coalesced repeats (run with -race -count=10).
func TestFeaturizeKeysConcurrent(t *testing.T) {
	lib, _ := env(t)
	const nPoints, goroutines, rounds, batch = 120, 8, 20, 24
	pts := stressPoints(t, lib.World(), nPoints)
	want := make([]string, nPoints)
	for i, p := range pts {
		want[i] = lib.FeaturizePoint(p).String()
	}
	store, err := New(lib, 48)
	if err != nil {
		t.Fatal(err)
	}
	var derived atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(int64(g) + 7)
			for r := 0; r < rounds; r++ {
				req := make([]*synth.Point, batch)
				lo := rng.Intn(nPoints - batch/2)
				for i := range req { // each ID about twice
					req[i] = pts[lo+rng.Intn(batch/2)]
				}
				got, err := store.FeaturizeKeys(context.Background(), mapreduce.Config{Workers: 2}, keysOf(req),
					func(i int) *synth.Point { derived.Add(1); return req[i] })
				if err != nil {
					errs <- err
					return
				}
				for i, v := range got {
					if v.String() != want[req[i].ID] {
						t.Errorf("goroutine %d round %d: point %d diverged", g, r, req[i].ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, _ := store.Stats()
	if hits+misses != goroutines*rounds*batch {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, goroutines*rounds*batch)
	}
	if d := derived.Load(); d != int64(misses-store.Coalesced()) {
		t.Errorf("%d derivations, want misses %d - coalesced %d", d, misses, store.Coalesced())
	}
}

package featurestore

import (
	"context"
	"testing"

	"crossmodal/internal/mapreduce"
)

// TestFeaturizeMissAllocsPerBatch: an all-miss batch allocates, beyond each
// point's own vector and its cache entry (an LRU element and its payload),
// a budget that does not grow with the batch — no generator per point and no
// bookkeeping that regrows as misses pile up.
func TestFeaturizeMissAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	lib, pts := env(t)
	cfg := mapreduce.Config{Workers: 1}
	const perCall = 48
	newStore := testing.AllocsPerRun(5, func() { _, _ = New(lib, 0) })
	for _, n := range []int{32, 256} {
		var vecs float64 // what n vectors cost on their own, generator aside
		for _, p := range pts[:n] {
			vecs += testing.AllocsPerRun(5, func() { lib.FeaturizePoint(p) }) - 1
		}
		got := testing.AllocsPerRun(5, func() {
			s, _ := New(lib, 0)
			if _, err := s.Featurize(context.Background(), cfg, pts[:n]); err != nil {
				t.Fatal(err)
			}
		}) - newStore
		if extra := got - vecs - 2*float64(n); extra > perCall {
			t.Errorf("%d-point miss: %v allocations, %v beyond the vectors and entries (budget %d)", n, got, extra, perCall)
		}
	}
}

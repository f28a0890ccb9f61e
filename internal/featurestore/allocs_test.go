package featurestore

import (
	"context"
	"testing"

	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
)

// TestFeaturizeMissAllocsPerBatch: an all-miss batch allocates, beyond each
// point's own vector, a budget that does not grow with the batch — no
// generator per point, no heap object per cache entry, and no bookkeeping
// that regrows as misses pile up.
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
		if extra := got - vecs; extra > perCall {
			t.Errorf("%d-point miss: %v allocations, %v beyond the vectors (budget %d)", n, got, extra, perCall)
		}
	}
}

// TestEvictingInsertAllocsNothing: once a store is full, an insert reuses the
// evicted entry's slot, so it allocates nothing beyond the vector the caller
// brings.
func TestEvictingInsertAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	lib, pts := env(t)
	const capacity = pageSlots + 64
	s, err := New(lib, capacity)
	if err != nil {
		t.Fatal(err)
	}
	vec := lib.FeaturizePoint(pts[0])
	id := 0
	insert := func() {
		s.mu.Lock()
		s.insertLocked(Key{ID: id, Modality: synth.Image}, vec)
		s.mu.Unlock()
		id++
	}
	for range 4 * capacity {
		insert()
	}
	if got := testing.AllocsPerRun(1000, insert); got != 0 {
		t.Errorf("an evicting insert allocates %v times", got)
	}
	if s.Len() != capacity {
		t.Errorf("%d entries, capacity %d", s.Len(), capacity)
	}
}

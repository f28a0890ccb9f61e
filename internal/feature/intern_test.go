package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// mapJaccard is the pre-interning map-based implementation, kept verbatim as
// the reference the optimized kernels must match exactly.
func mapJaccard(a, b []string) float64 {
	set := make(map[string]int8)
	for _, c := range a {
		set[c] |= 1
	}
	for _, c := range b {
		set[c] |= 2
	}
	if len(set) == 0 {
		return 1
	}
	inter := 0
	for _, m := range set {
		if m == 3 {
			inter++
		}
	}
	return float64(inter) / float64(len(set))
}

func randomCategories(rng *rand.Rand, pool int) []string {
	n := rng.Intn(6)
	if n == 0 && rng.Intn(4) > 0 {
		return nil
	}
	cats := make([]string, n)
	for i := range cats {
		// Small pool so duplicates within and across sets are common.
		cats[i] = fmt.Sprintf("c%d", rng.Intn(pool))
	}
	return cats
}

// TestJaccardMatchesMapReference property-tests the allocation-free string
// Jaccard and the interned-ID merge against the original map-based
// implementation. Equality must be exact: both compute the same
// intersection/union counts and the same final division.
func TestJaccardMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5000; trial++ {
		a := randomCategories(rng, 8)
		b := randomCategories(rng, 8)
		want := mapJaccard(a, b)
		if got := Jaccard(a, b); got != want {
			t.Fatalf("Jaccard(%v, %v) = %v, map reference %v", a, b, got, want)
		}
		if got := JaccardIDs(internCategories(a), internCategories(b)); got != want {
			t.Fatalf("JaccardIDs(%v, %v) = %v, map reference %v", a, b, got, want)
		}
	}
}

func internTestSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Def{Name: "cat", Kind: Categorical},
		Def{Name: "tags", Kind: Categorical},
		Def{Name: "num", Kind: Numeric},
		Def{Name: "emb", Kind: Embedding, Dim: 8},
	)
}

func randomVector(t *testing.T, rng *rand.Rand, schema *Schema) *Vector {
	t.Helper()
	v := NewVector(schema)
	if rng.Intn(5) > 0 {
		v.MustSet("cat", CategoricalValue(randomCategories(rng, 8)...))
	}
	if rng.Intn(5) > 0 {
		v.MustSet("tags", CategoricalValue(randomCategories(rng, 20)...))
	}
	if rng.Intn(5) > 0 {
		v.MustSet("num", NumericValue(rng.NormFloat64()*3))
	}
	if rng.Intn(5) > 0 {
		emb := make([]float64, 8)
		for i := range emb {
			emb[i] = rng.NormFloat64()
		}
		v.MustSet("emb", EmbeddingValue(emb))
	}
	return v
}

// packPair packs a and b into a fresh arena of kern as vertices 0 and 1.
func packPair(kern *SimKernel, a, b *Vector) *Arena {
	arena := kern.NewArena()
	arena.Append(a)
	arena.Append(b)
	return arena
}

// weighted scores one pair with fresh scratch.
func weighted(a *Arena, i, j int, floor float64) (float64, bool) {
	return a.Weighted(i, j, floor, a.SimScratch())
}

// TestSimKernelMatchesWeightedSimilarity checks the compiled kernel and its
// packed arena are bit-identical to the map-keyed Similarity and
// WeightedSimilarity for random vectors, scales, and weights (including
// absent, zero, and negative weights).
func TestSimKernelMatchesWeightedSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	schema := internTestSchema(t)
	for trial := 0; trial < 2000; trial++ {
		scales := Scales{"num": rng.Float64() * 3}
		var weights Weights
		switch rng.Intn(3) {
		case 1:
			weights = Weights{"cat": rng.Float64() * 2, "num": rng.Float64()*2 - 0.5}
		case 2:
			weights = Weights{"tags": 0, "emb": rng.Float64() * 2}
		}
		kern := NewSimKernel(schema, scales, weights)
		a, b := randomVector(t, rng, schema), randomVector(t, rng, schema)
		want := WeightedSimilarity(a, b, scales, weights)
		if got, ok := weighted(packPair(kern, a, b), 0, 1, 0); !ok || got != want {
			t.Fatalf("trial %d: kernel %v != WeightedSimilarity %v (weights %v)", trial, got, want, weights)
		}
		for i := 0; i < schema.Len(); i++ {
			ws, wok := Similarity(a, b, i, scales)
			ks, kok := kern.Similarity(a, b, i)
			if ws != ks || wok != kok {
				t.Fatalf("trial %d feature %d: kernel (%v,%v) != Similarity (%v,%v)", trial, i, ks, kok, ws, wok)
			}
		}
	}
}

// TestSimilarityPairAllocFree pins the per-pair hot path at zero allocations:
// the string Jaccard, the interned kernel, and full weighted similarity in
// both its map-keyed and packed forms.
func TestSimilarityPairAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	schema := internTestSchema(t)
	a, b := randomVector(t, rng, schema), randomVector(t, rng, schema)
	a.MustSet("cat", CategoricalValue("x", "y", "z"))
	b.MustSet("cat", CategoricalValue("y", "z", "w"))
	scales := Scales{"num": 2}
	weights := Weights{"cat": 2, "num": 0.5}
	arena := packPair(NewSimKernel(schema, scales, weights), a, b)
	sims := arena.SimScratch()
	cats := []string{"x", "y", "x"}
	for name, fn := range map[string]func(){
		"Jaccard":            func() { Jaccard(cats, cats) },
		"JaccardIDs":         func() { JaccardIDs(a.CategoryIDs(0), b.CategoryIDs(0)) },
		"WeightedSimilarity": func() { WeightedSimilarity(a, b, scales, weights) },
		"Arena.Weighted":     func() { arena.Weighted(0, 1, 0.3, sims) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per pair, want 0", name, allocs)
		}
	}
}

// TestInternedValueCopySemantics checks the copy paths keep the intern IDs
// coherent with the strings: Set interns, Reproject carries the IDs along
// with the payload it shares, and Clone's deep copy can be rewritten without
// the original's strings or IDs moving.
func TestInternedValueCopySemantics(t *testing.T) {
	schema := internTestSchema(t)
	v := NewVector(schema)
	v.MustSet("cat", CategoricalValue("x", "y"))
	want := []uint32{InternID("x"), InternID("y")}
	slices.Sort(want)
	if got := v.CategoryIDs(0); !slices.Equal(got, want) {
		t.Fatalf("Set interned %v, want %v", got, want)
	}
	onlyCat := schema.Project(func(d Def) bool { return d.Name == "cat" })
	if got := v.Reproject(onlyCat).CategoryIDs(0); !slices.Equal(got, want) {
		t.Errorf("Reproject carries IDs %v, want %v", got, want)
	}
	c := v.Clone()
	c.MustSet("cat", CategoricalValue("mutated", "y"))
	if got, ok := Similarity(c, v, 0, nil); !ok || got != Jaccard(c.CategoryNames(0), v.CategoryNames(0)) || got != 1.0/3 {
		t.Errorf("rewritten clone similarity %v, want the string path's 1/3", got)
	}
	if !slices.Equal(v.CategoryNames(0), []string{"x", "y"}) || !slices.Equal(v.CategoryIDs(0), want) {
		t.Errorf("rewriting the clone moved the original: %v", v)
	}
}

func benchVectors(b *testing.B) (*Vector, *Vector, Scales, Weights) {
	b.Helper()
	rng := rand.New(rand.NewSource(53))
	schema := MustSchema(
		Def{Name: "cat", Kind: Categorical},
		Def{Name: "tags", Kind: Categorical},
		Def{Name: "num", Kind: Numeric},
		Def{Name: "emb", Kind: Embedding, Dim: 16},
	)
	mk := func() *Vector {
		v := NewVector(schema)
		v.MustSet("cat", CategoricalValue(fmt.Sprintf("c%d", rng.Intn(8))))
		v.MustSet("tags", CategoricalValue(
			fmt.Sprintf("t%d", rng.Intn(30)), fmt.Sprintf("t%d", rng.Intn(30)), fmt.Sprintf("t%d", rng.Intn(30))))
		v.MustSet("num", NumericValue(rng.NormFloat64()*3))
		emb := make([]float64, 16)
		for i := range emb {
			emb[i] = rng.NormFloat64()
		}
		v.MustSet("emb", EmbeddingValue(emb))
		return v
	}
	return mk(), mk(), Scales{"num": 2}, Weights{"cat": 1.5, "tags": 0.8}
}

func BenchmarkWeightedSimilarity(b *testing.B) {
	va, vb, scales, weights := benchVectors(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedSimilarity(va, vb, scales, weights)
	}
}

// BenchmarkArenaWeighted scores one pair at the floor the graph builder
// passes until a vertex's heap fills (its default MinWeight), which the pair
// clears, and at floor 1, which drops it once the bound falls short.
func BenchmarkArenaWeighted(b *testing.B) {
	va, vb, scales, weights := benchVectors(b)
	arena := packPair(NewSimKernel(va.Schema(), scales, weights), va, vb)
	sims := arena.SimScratch()
	for _, floor := range []float64{0.05, 1} {
		b.Run(fmt.Sprintf("floor=%v", floor), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Weighted(0, 1, floor, sims)
			}
		})
	}
}

func BenchmarkJaccard(b *testing.B) {
	x := []string{"a", "b", "c"}
	y := []string{"b", "c", "d"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}

// TestInternConcurrentAgreement: goroutines interning overlapping category
// sets at once (so lock-free snapshot hits, locked hits, first assignments
// and republishes all interleave) must agree on every ID, and the IDs of the
// newly assigned categories must be dense. Run under -race.
func TestInternConcurrentAgreement(t *testing.T) {
	const goroutines, vocab, rounds = 8, 600, 3
	name := func(k int) string { return fmt.Sprintf("concurrent-intern-%d", k) }
	got := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]uint32, vocab)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the vocabulary from its own offset, so
			// every category is first seen by a different goroutine.
			for round := 0; round < rounds; round++ {
				for step := 0; step < vocab; step++ {
					k := (step + g*vocab/goroutines) % vocab
					id := InternID(name(k))
					if round > 0 && id != got[g][k] {
						t.Errorf("goroutine %d: %q changed ID %d -> %d", g, name(k), got[g][k], id)
						return
					}
					got[g][k] = id
				}
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint32]bool, vocab)
	lo, hi := ^uint32(0), uint32(0)
	for k := 0; k < vocab; k++ {
		id := got[0][k]
		for g := 1; g < goroutines; g++ {
			if got[g][k] != id {
				t.Fatalf("%q: goroutine 0 got ID %d, goroutine %d got %d", name(k), id, g, got[g][k])
			}
		}
		if seen[id] {
			t.Fatalf("ID %d assigned to two categories", id)
		}
		seen[id] = true
		lo, hi = min(lo, id), max(hi, id)
		if again := InternID(name(k)); again != id {
			t.Fatalf("%q: ID %d, then %d", name(k), id, again)
		}
	}
	// Nothing else interns while this test runs (package tests are serial),
	// so the vocab fresh IDs form one contiguous range.
	if int(hi-lo) != vocab-1 {
		t.Fatalf("fresh IDs span [%d, %d], want %d dense IDs", lo, hi, vocab)
	}
}

// TestSetAtMatchesSet: addressing by index, carving vectors from a slab and
// handing SetCategoryIDs pre-interned IDs are all representations of the same
// vector that Set-by-name builds.
func TestSetAtMatchesSet(t *testing.T) {
	schema := internTestSchema(t)
	rng := rand.New(rand.NewSource(77))
	const n = 200
	slab := NewVectors(schema, n)
	for r := 0; r < n; r++ {
		want := randomVector(t, rng, schema)
		byIndex := NewVector(schema)
		for i := 0; i < schema.Len(); i++ {
			val := want.At(i)
			plain := Value{Categories: val.Categories, Num: val.Num, Vec: val.Vec, Missing: val.Missing}
			if err := byIndex.SetAt(i, plain); err != nil {
				t.Fatal(err)
			}
			err := slab[r].SetAt(i, plain)
			if schema.Def(i).Kind == Categorical && !val.Missing {
				ids := make([]uint32, len(val.Categories))
				for k, c := range val.Categories {
					ids[k] = InternID(c)
				}
				err = slab[r].SetCategoryIDs(i, ids)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for name, got := range map[string]*Vector{"SetAt": byIndex, "slab": &slab[r]} {
			if !want.Equal(got) {
				t.Fatalf("row %d: %s built %v, Set built %v", r, name, got, want)
			}
			for i := 0; i < schema.Len(); i++ {
				if !slices.Equal(want.CategoryIDs(i), got.CategoryIDs(i)) {
					t.Fatalf("row %d feature %d: %s interned %v, Set %v", r, i, name, got.CategoryIDs(i), want.CategoryIDs(i))
				}
			}
		}
	}
	if err := slab[0].SetAt(3, EmbeddingValue(make([]float64, 3))); err == nil {
		t.Fatal("SetAt accepted an embedding of the wrong dimension")
	}
	// A slab vector's window is capacity-limited: it cannot reach its
	// neighbour's cells.
	if got := cap(slab[0].cells); got != schema.Len() {
		t.Fatalf("slab vector cell capacity %d, want %d", got, schema.Len())
	}
	fresh := NewVectors(schema, 2)
	for i := 0; i < schema.Len(); i++ {
		if !fresh[1].At(i).Missing {
			t.Fatalf("NewVectors: feature %d not missing", i)
		}
	}
}

// TestReuseVectors: a reused slab is a NewVectors result again — every row
// Missing, the payload empty — in the same memory, keeping the payload's
// capacity, and refills to what Set builds; a slab without room for the rows
// asked for, or of another schema, is replaced.
func TestReuseVectors(t *testing.T) {
	schema := internTestSchema(t)
	rng := rand.New(rand.NewSource(5))
	const n = 50
	fill := func(slab []Vector) {
		for r := range slab {
			want := randomVector(t, rng, schema)
			for i := 0; i < schema.Len(); i++ {
				if err := slab[r].SetAt(i, want.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			if !want.Equal(&slab[r]) {
				t.Fatalf("row %d: slab holds %v, Set built %v", r, &slab[r], want)
			}
		}
	}
	slab := NewVectors(schema, n)
	fill(slab)
	pay := slab[0].pay
	ids, embs := cap(pay.ids), cap(pay.embs)

	reused := ReuseVectors(slab, schema, n-1)
	if len(reused) != n-1 || &reused[0] != &slab[0] || reused[0].pay != pay {
		t.Fatalf("ReuseVectors made a new slab of %d rows, want slab's first %d", len(reused), n-1)
	}
	for r := range reused {
		for i := 0; i < schema.Len(); i++ {
			if reused[r].Present(i) {
				t.Fatalf("reused row %d keeps feature %d", r, i)
			}
		}
	}
	if c, e := reused[0].PayloadLen(); c != 0 || e != 0 || cap(pay.ids) != ids || cap(pay.embs) != embs {
		t.Fatalf("reused payload holds %d category IDs / %d floats with capacity %d / %d, want none with %d / %d",
			c, e, cap(pay.ids), cap(pay.embs), ids, embs)
	}
	fill(reused)
	// The slab's capacity is n: all n rows are reusable after n-1 were asked for.
	if again := ReuseVectors(reused, schema, n); &again[0] != &slab[0] {
		t.Fatal("ReuseVectors did not reuse a slab with room for every row")
	}
	if grown := ReuseVectors(slab, schema, n+1); &grown[0] == &slab[0] || len(grown) != n+1 {
		t.Fatal("ReuseVectors reused a slab without room for the rows asked for")
	}
	if other := ReuseVectors(slab, MustSchema(Def{Name: "n", Kind: Numeric}), 2); &other[0] == &slab[0] {
		t.Fatal("ReuseVectors reused a slab of another schema")
	}
}

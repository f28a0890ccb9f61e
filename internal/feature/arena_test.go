package feature

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomPackedCase draws a schema of nFeat features with random kinds, a
// scales/weights pair (absent, zero and negative entries included) and two
// vectors covering every layout edge case: missing values, present-but-
// empty categorical sets, embeddings written past SetVec's dimension check
// (the wrong, zero or mismatched length a reprojection can carry), and
// zero-norm embeddings.
func randomPackedCase(rng *rand.Rand, nFeat int) (*Schema, Scales, Weights, *Vector, *Vector) {
	schema, scales, weights := randomPackedSchema(rng, nFeat)
	return schema, scales, weights, randomPackedVector(rng, schema), randomPackedVector(rng, schema)
}

// randomPackedSchema draws randomPackedCase's schema, scales and weights.
func randomPackedSchema(rng *rand.Rand, nFeat int) (*Schema, Scales, Weights) {
	defs := make([]Def, nFeat)
	for i := range defs {
		d := Def{Name: fmt.Sprintf("f%d", i), Kind: Kind(rng.Intn(3))}
		if d.Kind == Embedding {
			d.Dim = 1 + rng.Intn(6)
		}
		defs[i] = d
	}
	schema := MustSchema(defs...)

	scales := Scales{}
	var weights Weights
	if rng.Intn(4) > 0 {
		weights = Weights{}
	}
	for _, d := range defs {
		if d.Kind == Numeric && rng.Intn(4) > 0 {
			scales[d.Name] = rng.Float64()*3 - 0.3 // sometimes <= 0: falls back to 1
		}
		if weights != nil {
			switch rng.Intn(6) {
			case 0:
				weights[d.Name] = 0
			case 1:
				weights[d.Name] = -rng.Float64()
			case 2, 3:
				weights[d.Name] = rng.Float64() * 2
			}
		}
	}
	return schema, scales, weights
}

// randomPackedVector draws one of randomPackedCase's vectors.
func randomPackedVector(rng *rand.Rand, schema *Schema) *Vector {
	v := NewVector(schema)
	for i, d := range schema.defs {
		if rng.Intn(4) == 0 {
			continue // missing
		}
		var val Value
		switch d.Kind {
		case Categorical:
			val = CategoricalValue(randomCategories(rng, 6)...)
		case Numeric:
			val = NumericValue(rng.NormFloat64() * 3)
		case Embedding:
			dim := d.Dim
			handBuilt := rng.Intn(4) == 0
			if handBuilt {
				dim = rng.Intn(d.Dim + 2) // wrong, zero or right length
			}
			vec := make([]float64, dim)
			if rng.Intn(5) > 0 { // else zero norm
				for k := range vec {
					vec[k] = rng.NormFloat64()
				}
			}
			val = EmbeddingValue(vec)
			if handBuilt {
				setRaw(v, i, val)
				continue
			}
		}
		if rng.Intn(3) == 0 {
			v.MustSetAt(i, val)
		} else {
			v.MustSet(d.Name, val)
		}
	}
	return v
}

// checkPackedPair requires the packed kernel to agree with
// WeightedSimilarity bit for bit in both directions and on the self pair,
// and the early exit to be exact at the given floor: a pair is dropped only
// if its true weight is below the floor, never at or above it.
func checkPackedPair(t *testing.T, seed int64, nFeat int, floor float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema, scales, weights, a, b := randomPackedCase(rng, nFeat)
	arena := packPair(NewSimKernel(schema, scales, weights), a, b)
	vecs := []*Vector{a, b}
	for _, p := range [][2]int{{0, 1}, {1, 0}, {0, 0}} {
		want := WeightedSimilarity(vecs[p[0]], vecs[p[1]], scales, weights)
		got, ok := weighted(arena, p[0], p[1], 0)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d n %d pair %v: packed (%v, %v), WeightedSimilarity %v\nweights %v scales %v\na %v\nb %v",
				seed, nFeat, p, got, ok, want, weights, scales, a, b)
		}
		// The pair's own weight is the tightest floor that must not prune.
		for _, fl := range []float64{floor, want} {
			got, ok := weighted(arena, p[0], p[1], fl)
			switch {
			case ok && math.Float64bits(got) != math.Float64bits(want):
				t.Fatalf("seed %d n %d pair %v floor %v: survivor %v != %v", seed, nFeat, p, fl, got, want)
			case !ok && !(want < fl):
				t.Fatalf("seed %d n %d pair %v: dropped at floor %v but weight is %v", seed, nFeat, p, fl, want)
			}
		}
	}
}

// packedFuzzSeeds is FuzzPackedWeighted's seed corpus. Three cases were
// picked for the categorical pairs they score (catPairClasses): Weighted
// answers two singleton sets without a merge, and every neighbouring shape —
// singleton against a larger, an empty or an absent set — must still reach
// JaccardIDs or be skipped. The last pins a tiny weight (~9.1e-9) at floor =
// weight: an exit that tested the lost weight Σw(1−s) against T(1−floor)
// compares two numbers near T whose difference is the whole answer, cancels
// catastrophically there, and drops the pair.
var packedFuzzSeeds = []struct {
	seed  int64
	nFeat uint8
	floor float64
}{
	{1, 4, 0.5}, {2, 18, 0.3}, {3, 64, 0.9}, {4, 65, 0.05}, {5, 200, 1.0}, {6, 1, -1.0},
	{100, 13, 0.2}, // 1/-, 1/n
	{103, 13, 0.4}, // 1/0, 1/n, 1≠1
	{127, 13, 0.6}, // 1=1
	{-101, 2, 0.5},
}

// FuzzPackedWeighted fuzzes the packed kernel against the reference over
// random schemas (up to 255 features, so multi-word masks are reached),
// vectors and floors.
func FuzzPackedWeighted(f *testing.F) {
	for _, c := range packedFuzzSeeds {
		f.Add(c.seed, c.nFeat, c.floor)
	}
	f.Fuzz(func(t *testing.T, seed int64, nFeat uint8, floor float64) {
		if nFeat == 0 {
			nFeat = 1
		}
		checkPackedPair(t, seed, int(nFeat), floor)
		checkArenaSplits(t, seed, int(nFeat))
	})
}

// checkArenaSplits packs one random batch into three arenas — all of it in
// one Append, in random splits, and one vertex at a time — and requires
// every pair to score bit-identically in all three and against
// WeightedSimilarity: how a batch is split never changes the arena.
func checkArenaSplits(t *testing.T, seed int64, nFeat int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema, scales, weights := randomPackedSchema(rng, nFeat)
	vecs := make([]*Vector, 1+rng.Intn(12))
	for i := range vecs {
		vecs[i] = randomPackedVector(rng, schema)
	}
	kern := NewSimKernel(schema, scales, weights)
	batch, split, single := kern.NewArena(), kern.NewArena(), kern.NewArena()
	appendVecs(batch, vecs...)
	for lo := 0; lo < len(vecs); {
		hi := lo + rng.Intn(len(vecs)-lo+1) // an empty split included
		appendVecs(split, vecs[lo:hi]...)
		lo = hi
	}
	for _, v := range vecs {
		appendVecs(single, v)
	}
	for i := range vecs {
		for j := range vecs {
			want := WeightedSimilarity(vecs[i], vecs[j], scales, weights)
			for name, a := range map[string]*Arena{"batch": batch, "split": split, "single": single} {
				if got, ok := weighted(a, i, j, 0); !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d n %d: %s arena pair (%d, %d) = (%v, %v), WeightedSimilarity %v", seed, nFeat, name, i, j, got, ok, want)
				}
			}
		}
	}
}

// appendVecs appends vs to a through the vector adapter.
func appendVecs(a *Arena, vs ...*Vector) {
	if len(vs) > 0 {
		a.Append(VectorColumns(vs[0].Schema(), vs)...)
	}
}

// TestArenaAppendSplits runs checkArenaSplits over a fixed sweep.
func TestArenaAppendSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		checkArenaSplits(t, rng.Int63(), 1+rng.Intn(90))
	}
}

// arenaBatch is n vectors of the sparse tests' end-model schema and its
// kernel: the arena tests' and benchmark's batch.
func arenaBatch(n int) (*SimKernel, []*Vector) {
	end, _ := sparseSchemas()
	rng := rand.New(rand.NewSource(17))
	vecs := make([]*Vector, n)
	for i := range vecs {
		vecs[i] = randomSparseVector(rng, end)
	}
	return NewSimKernel(end, nil, nil), vecs
}

// TestArenaAppendAllocsPerBatch: a batch appended to an empty arena sizes
// each column once, so ten times the vertices cost no more allocations.
func TestArenaAppendAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations")
	}
	allocs := func(n int) float64 {
		kern, vecs := arenaBatch(n)
		return testing.AllocsPerRun(10, func() { appendVecs(kern.NewArena(), vecs...) })
	}
	if small, large := allocs(300), allocs(3000); small != large {
		t.Errorf("Append into an empty arena: %v allocations at 300 vertices, %v at 3000", small, large)
	}
}

func BenchmarkArenaAppend(b *testing.B) {
	kern, vecs := arenaBatch(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendVecs(kern.NewArena(), vecs...)
	}
}

// TestPackedFuzzSeedsCoverSingletonPairs keeps the seed corpus honest: it
// must score two equal singletons, two different ones, and a singleton
// against a multi-ID, an empty and an absent set.
func TestPackedFuzzSeedsCoverSingletonPairs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range packedFuzzSeeds {
		for class := range catPairClasses(c.seed, int(c.nFeat)) {
			seen[class] = true
		}
	}
	for _, class := range []string{"1=1", "1≠1", "1/n", "1/0", "1/-"} {
		if !seen[class] {
			t.Errorf("no fuzz seed scores a %s categorical pair", class)
		}
	}
}

// TestPackedWeightedMatchesReference runs the fuzz property over a fixed
// sweep so plain `go test` exercises it beyond the seed corpus.
func TestPackedWeightedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 3000; trial++ {
		checkPackedPair(t, rng.Int63(), 1+rng.Intn(90), rng.Float64()*1.1)
	}
}

// TestArenaTinyWeightsSurviveTheirFloor scores pairs whose features are all
// present on both sides (so T equals the shared weight) with similarities
// near exp(-20): summed heaviest first, wsum often rounds an ulp past T,
// and without the bound's max(0, T − wsum) clamp that ulp outweighs the
// pair's whole tiny weight and drops it at floor = its weight.
func TestArenaTinyWeightsSurviveTheirFloor(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		defs := make([]Def, 2+rng.Intn(12))
		weights := Weights{}
		for i := range defs {
			defs[i] = Def{Name: fmt.Sprintf("n%d", i), Kind: Numeric}
			weights[defs[i].Name] = rng.Float64() * 2
		}
		schema := MustSchema(defs...)
		a, b := NewVector(schema), NewVector(schema)
		for _, d := range defs {
			a.MustSet(d.Name, NumericValue(0))
			b.MustSet(d.Name, NumericValue(20+rng.Float64()*10))
		}
		arena := packPair(NewSimKernel(schema, nil, weights), a, b)
		want := WeightedSimilarity(a, b, nil, weights)
		if got, ok := weighted(arena, 0, 1, want); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: (%v, %v) at floor = weight %v", seed, got, ok, want)
		}
	}
}

// TestArenaLayoutEdgeCases pins each layout rule with a hand-computed value.
func TestArenaLayoutEdgeCases(t *testing.T) {
	schema := MustSchema(
		Def{Name: "cat", Kind: Categorical},
		Def{Name: "dropped", Kind: Numeric},
		Def{Name: "emb", Kind: Embedding, Dim: 3},
	)
	weights := Weights{"dropped": 0}
	kern := NewSimKernel(schema, nil, weights)
	if got := len(kern.NewArena().feats); got != 2 {
		t.Fatalf("layout has %d features, want 2 (weight <= 0 compiled out)", got)
	}

	score := func(a, b *Vector) float64 {
		t.Helper()
		got, ok := weighted(packPair(kern, a, b), 0, 1, 0)
		if want := WeightedSimilarity(a, b, nil, weights); !ok || got != want {
			t.Fatalf("packed (%v, %v), reference %v", got, ok, want)
		}
		return got
	}
	vec := func(cat, emb *Value) *Vector {
		v := NewVector(schema)
		v.SetNum(1, 7) // never read: its weight is 0
		if cat != nil {
			v.MustSetAt(0, *cat)
		}
		if emb != nil {
			setRaw(v, 2, *emb)
		}
		return v
	}
	val := func(v Value) *Value { return &v }

	// Jaccard(∅, ∅) = 1 for a categorical that is present but empty.
	if got := score(vec(val(CategoricalValue()), nil), vec(val(CategoricalValue()), nil)); got != 1 {
		t.Errorf("empty-set pair = %v, want 1", got)
	}
	// Two singletons skip the merge: equal 1, different 0, and a repeated
	// ID is still a singleton; a singleton against a pair goes through it.
	x := val(CategoricalValue("x"))
	for _, tc := range []struct {
		other *Value
		want  float64
	}{{x, 1}, {val(CategoricalValue("y")), 0}, {val(CategoricalValue("x", "x")), 1},
		{val(CategoricalValue("x", "y")), 0.5}, {val(CategoricalValue()), 0}} {
		if got := score(vec(x, nil), vec(tc.other, nil)); got != tc.want {
			t.Errorf("{x} vs %v = %v, want %v", tc.other, got, tc.want)
		}
		if got := score(vec(tc.other, nil), vec(x, nil)); got != tc.want {
			t.Errorf("%v vs {x} = %v, want %v", tc.other, got, tc.want)
		}
	}
	// Duplicates collapse: {x,y} vs {y,z,y} = 1/3.
	if got := score(vec(val(CategoricalValue("x", "y")), nil), vec(val(CategoricalValue("y", "z", "y")), nil)); got != 1.0/3 {
		t.Errorf("duplicate-bearing categorical pair = %v, want 1/3", got)
	}
	// Cosine 0 → contribution 0.5 for unequal lengths, zero length, zero norm.
	one := val(EmbeddingValue([]float64{1, 2, 3}))
	for name, other := range map[string]*Value{
		"unequal length": val(EmbeddingValue([]float64{1, 2})),
		"zero length":    val(EmbeddingValue(nil)),
		"zero norm":      val(EmbeddingValue([]float64{0, 0, 0})),
	} {
		if got := score(vec(nil, one), vec(nil, other)); got != 0.5 {
			t.Errorf("%s: embedding pair = %v, want 0.5", name, got)
		}
	}
	// No feature present on both sides: weight 0, not a dropped pair.
	if got := score(vec(val(CategoricalValue("x")), nil), vec(nil, one)); got != 0 {
		t.Errorf("disjoint presence = %v, want 0", got)
	}
}

// TestArenaWideSchema covers a schema wider than one mask word: features on
// both sides of the 64-bit boundary must count, the heaviest (scored first)
// sit past it, a survivor at floor = its own weight must keep it bit for bit,
// and the pair call must stay allocation-free.
func TestArenaWideSchema(t *testing.T) {
	const n = 70
	defs := make([]Def, n)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("n%d", i), Kind: Numeric}
	}
	schema := MustSchema(defs...)
	weights := Weights{"n69": 3, "n64": 2}
	a, b := NewVector(schema), NewVector(schema)
	for _, i := range []int{0, 63, 64, 69} {
		a.MustSet(defs[i].Name, NumericValue(float64(i)))
		b.MustSet(defs[i].Name, NumericValue(float64(i)+0.5))
	}
	a.MustSet("n10", NumericValue(1)) // present on one side only
	arena := packPair(NewSimKernel(schema, nil, weights), a, b)
	if arena.words != 2 {
		t.Fatalf("mask words = %d, want 2", arena.words)
	}
	want := WeightedSimilarity(a, b, nil, weights)
	sims := arena.SimScratch()
	for _, floor := range []float64{0, want} {
		if got, ok := arena.Weighted(0, 1, floor, sims); !ok || math.Float64bits(got) != math.Float64bits(want) || math.Abs(got-math.Exp(-0.5)) > 1e-15 {
			t.Fatalf("wide pair at floor %v = (%v, %v), want %v", floor, got, ok, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { arena.Weighted(0, 1, 0.2, sims) }); allocs != 0 {
		t.Errorf("%v allocs per wide pair, want 0", allocs)
	}
}

// catPairClasses names the kinds of categorical pair the fuzz case (seed,
// nFeat) scores on a feature the kernel keeps: by set size on each side,
// "1=1" / "1≠1" for two singletons, "1/n", "1/0" (present but empty) and
// "1/-" (absent).
func catPairClasses(seed int64, nFeat int) map[string]bool {
	schema, _, weights, a, b := randomPackedCase(rand.New(rand.NewSource(seed)), nFeat)
	classes := map[string]bool{}
	for i := 0; i < schema.Len(); i++ {
		w, set := weights[schema.Def(i).Name]
		if schema.Def(i).Kind != Categorical || (set && w <= 0) {
			continue
		}
		x, y := a, b
		if len(x.CategoryIDs(i)) != 1 {
			x, y = b, a
		}
		xs, ys := x.CategoryIDs(i), y.CategoryIDs(i)
		switch {
		case len(xs) != 1:
		case !y.Present(i):
			classes["1/-"] = true
		case len(ys) == 0:
			classes["1/0"] = true
		case len(ys) > 1:
			classes["1/n"] = true
		case xs[0] == ys[0]:
			classes["1=1"] = true
		default:
			classes["1≠1"] = true
		}
	}
	return classes
}

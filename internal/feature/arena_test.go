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

	mk := func() *Vector {
		v := NewVector(schema)
		for i, d := range defs {
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
	return schema, scales, weights, mk(), mk()
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
		got, ok := arena.Weighted(p[0], p[1], 0)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d n %d pair %v: packed (%v, %v), WeightedSimilarity %v\nweights %v scales %v\na %v\nb %v",
				seed, nFeat, p, got, ok, want, weights, scales, a, b)
		}
		// The pair's own weight is the tightest floor that must not prune.
		for _, fl := range []float64{floor, want} {
			got, ok := arena.Weighted(p[0], p[1], fl)
			switch {
			case ok && math.Float64bits(got) != math.Float64bits(want):
				t.Fatalf("seed %d n %d pair %v floor %v: survivor %v != %v", seed, nFeat, p, fl, got, want)
			case !ok && !(want < fl):
				t.Fatalf("seed %d n %d pair %v: dropped at floor %v but weight is %v", seed, nFeat, p, fl, want)
			}
		}
	}
}

// FuzzPackedWeighted fuzzes the packed kernel against the reference over
// random schemas (up to 255 features, so multi-word masks are reached),
// vectors and floors.
func FuzzPackedWeighted(f *testing.F) {
	f.Add(int64(1), uint8(4), 0.5)
	f.Add(int64(2), uint8(18), 0.3)
	f.Add(int64(3), uint8(64), 0.9)
	f.Add(int64(4), uint8(65), 0.05)
	f.Add(int64(5), uint8(200), 1.0)
	f.Add(int64(6), uint8(1), -1.0)
	f.Fuzz(func(t *testing.T, seed int64, nFeat uint8, floor float64) {
		if nFeat == 0 {
			nFeat = 1
		}
		checkPackedPair(t, seed, int(nFeat), floor)
	})
}

// TestPackedWeightedMatchesReference runs the fuzz property over a fixed
// sweep so plain `go test` exercises it beyond the seed corpus.
func TestPackedWeightedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 3000; trial++ {
		checkPackedPair(t, rng.Int63(), 1+rng.Intn(90), rng.Float64()*1.1)
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
		got, ok := packPair(kern, a, b).Weighted(0, 1, 0)
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
// both sides of the 64-bit boundary must count, and the pair call must stay
// allocation-free.
func TestArenaWideSchema(t *testing.T) {
	const n = 70
	defs := make([]Def, n)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("n%d", i), Kind: Numeric}
	}
	schema := MustSchema(defs...)
	a, b := NewVector(schema), NewVector(schema)
	for _, i := range []int{0, 63, 64, 69} {
		a.MustSet(defs[i].Name, NumericValue(float64(i)))
		b.MustSet(defs[i].Name, NumericValue(float64(i)+0.5))
	}
	a.MustSet("n10", NumericValue(1)) // present on one side only
	arena := packPair(NewSimKernel(schema, nil, nil), a, b)
	if arena.words != 2 {
		t.Fatalf("mask words = %d, want 2", arena.words)
	}
	want := WeightedSimilarity(a, b, nil, nil)
	if got, ok := arena.Weighted(0, 1, 0); !ok || got != want || math.Abs(got-math.Exp(-0.5)) > 1e-15 {
		t.Fatalf("wide pair = (%v, %v), want %v", got, ok, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { arena.Weighted(0, 1, 0.2) }); allocs != 0 {
		t.Errorf("%v allocs per wide pair, want 0", allocs)
	}
}

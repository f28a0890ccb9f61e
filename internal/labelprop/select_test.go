package labelprop

import (
	"context"
	"slices"
	"sort"
	"testing"

	"crossmodal/internal/feature"
)

// checkSelections builds the graph over vecs in one delta and requires
// every vertex's directed selection to equal the brute-force reference:
// score every candidate the builder enumerates with
// feature.WeightedSimilarity, keep weights >= MinWeight, fully sort (weight
// descending, neighbor ascending) and truncate to K. Equality is exact —
// same neighbors, same weight bits, and an empty selection stays nil.
func checkSelections(t *testing.T, cfg GraphConfig, vecs []*feature.Vector, scales feature.Scales) *Builder {
	t.Helper()
	b, err := NewBuilder(vecs[0].Schema(), cfg, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDelta(context.Background(), vecs); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	sc := b.newTileScratch()
	buf := make([]int32, len(vecs))
	for i := range vecs {
		var want []Edge
		for _, j := range candidateIDs(b, i, sc, buf) {
			if w := feature.WeightedSimilarity(vecs[i], vecs[j], scales, cfg.Weights); w >= b.cfg.MinWeight {
				want = append(want, Edge{To: int(j), Weight: w})
			}
		}
		sort.Slice(want, func(a, c int) bool {
			if want[a].Weight != want[c].Weight {
				return want[a].Weight > want[c].Weight
			}
			return want[a].To < want[c].To
		})
		if len(want) > b.cfg.K {
			want = want[:b.cfg.K]
		}
		got := g.directed(i)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("vertex %d: selection %v, reference %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("vertex %d rank %d: selected %+v, reference %+v", i, k, got[k], want[k])
			}
		}
	}
	return b
}

// TestSelectionMatchesBruteForce runs the reference comparison over random
// corpora with categorical and LSH block keys, with candidate sampling
// forced (MaxCandidates below the block size), learned-style feature
// weights, and a MinWeight high enough to filter real candidates. The
// allpairs cases put every vertex in one block with the cap lifted, so the
// graph must also equal the exact reference.
func TestSelectionMatchesBruteForce(t *testing.T) {
	weights := feature.Weights{"topic": 0.3, "tags": 2.5, "score": 0.02, "emb": 1.2}
	for _, tc := range []struct {
		name     string
		cfg      GraphConfig
		allPairs bool
	}{
		{"allpairs", GraphConfig{K: 6, Workers: 2}, true},
		{"allpairs-weighted", GraphConfig{K: 3, Workers: 2, Weights: weights, MinWeight: 0.5}, true},
		{"blocked", GraphConfig{K: 6, Workers: 2, BlockFeatures: []string{"topic", "tags"}, MaxCandidates: 25}, false},
		{"blocked-weighted", GraphConfig{K: 10, Workers: 2, BlockFeatures: []string{"topic"}, Weights: weights, MinWeight: 0.4}, false},
		{"lsh", GraphConfig{K: 6, Workers: 2, LSH: LSHConfig{Enable: true}, MaxCandidates: 12}, false},
		{"lsh-weighted", GraphConfig{K: 4, Workers: 2, LSH: LSHConfig{Enable: true}, Weights: weights, MinWeight: 0.6}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				vecs := sweepVecs(200, 90+seed)
				scales := feature.FitScales(sweepSchema, vecs)
				cfg := tc.cfg
				cfg.Seed = seed
				built := vecs
				if tc.allPairs {
					cfg, built = oneBlock(cfg, vecs)
				}
				b := checkSelections(t, cfg, built, scales)
				if b.Graph().NumEdges() == 0 {
					t.Fatal("graph has no edges; test has no teeth")
				}
				if tc.allPairs {
					if err := graphEqual(exactGraph(tc.cfg, vecs, scales), b.Graph()); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
		})
	}
}

// tieVecs builds a corpus whose similarities are decided by "score" alone
// (topic and coarse only block; the test gives them edge weight zero),
// so equal scores give exactly equal edge weights. Vertices 0–3 are in
// coarse block X only, 4–11 in topic block A and coarse block X, and the
// query-like vertex 12 lists topic before coarse — so its candidates
// enumerate as 4..11 then 0..3: later candidates tie with, and must
// displace, earlier ones by the lower-index rule.
func tieVecs() []*feature.Vector {
	tieSchema := feature.MustSchema(
		feature.Def{Name: "topic", Kind: feature.Categorical},
		feature.Def{Name: "coarse", Kind: feature.Categorical},
		feature.Def{Name: "score", Kind: feature.Numeric},
	)
	mk := func(topic string, score float64) *feature.Vector {
		v := feature.NewVector(tieSchema)
		if topic != "" {
			v.MustSet("topic", feature.CategoricalValue(topic))
		}
		v.MustSet("coarse", feature.CategoricalValue("X"))
		v.MustSet("score", feature.NumericValue(score))
		return v
	}
	var vecs []*feature.Vector
	for i := 0; i < 4; i++ {
		vecs = append(vecs, mk("", 2)) // tie group, low indexes, reached last
	}
	vecs = append(vecs, mk("A", 1), mk("A", 1)) // strictly closer to the query
	for i := 0; i < 6; i++ {
		vecs = append(vecs, mk("A", 2)) // same tie group, reached first
	}
	return append(vecs, mk("A", 1))
}

// TestSelectionExactTies pins the tie rule at the K-th position: with K=5,
// vertex 12 must keep its two exact matches (4, 5) and then the three
// lowest-indexed members of a ten-way weight tie (0, 1, 2) — although the
// heap saw 6..11 first and was already full when 0..3 arrived.
func TestSelectionExactTies(t *testing.T) {
	vecs := tieVecs()
	cfg := GraphConfig{K: 5, Workers: 2, BlockFeatures: []string{"topic", "coarse"},
		Weights: feature.Weights{"topic": 0, "coarse": 0}}
	b := checkSelections(t, cfg, vecs, feature.Scales{"score": 1})
	var got []int
	for _, e := range b.g.directed(12) {
		got = append(got, e.To)
	}
	if want := []int{4, 5, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("vertex 12 selected %v, want %v", got, want)
	}
	if w := b.g.directed(12); w[2].Weight != w[4].Weight || w[1].Weight <= w[2].Weight {
		t.Fatalf("expected a tie at ranks 2..4 below ranks 0..1, got %+v", w)
	}
}

// TestSelectionMinWeightExcludesAll sets MinWeight above every possible
// weight: every directed selection stays nil (not an empty slice) and the
// graph has no edges, with either key kind.
func TestSelectionMinWeightExcludesAll(t *testing.T) {
	vecs := sweepVecs(60, 5)
	scales := feature.FitScales(sweepSchema, vecs)
	for _, cfg := range []GraphConfig{
		{MinWeight: 2, BlockFeatures: []string{"topic"}},
		{MinWeight: 2, LSH: LSHConfig{Enable: true}},
	} {
		b := checkSelections(t, cfg, vecs, scales)
		if n := b.Graph().NumEdges(); n != 0 {
			t.Errorf("%d edges above MinWeight 2", n)
		}
	}
}

// TestBlockKeysOrder pins the block-key contract candidate sampling depends
// on: features in configured order (their cfg position in the high word),
// categories in the order the value lists them (not sorted intern-ID
// order), duplicates kept, missing features skipped.
func TestBlockKeysOrder(t *testing.T) {
	first, second := "blockkeys-first", "blockkeys-second"
	idFirst, idSecond := feature.InternID(first), feature.InternID(second)
	if idFirst >= idSecond {
		t.Fatalf("intern IDs not in first-seen order: %d, %d", idFirst, idSecond)
	}
	s := feature.MustSchema(
		feature.Def{Name: "a", Kind: feature.Categorical},
		feature.Def{Name: "b", Kind: feature.Categorical},
		feature.Def{Name: "c", Kind: feature.Categorical},
	)
	v := feature.NewVector(s)
	v.MustSet("a", feature.CategoricalValue(second, first, second))
	v.MustSet("c", feature.CategoricalValue(first))
	slots, err := blockSlots(s, []string{"c", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	got := blockKeys(rowOf(v), 0, slots, new([]uint32), nil)
	want := []uint64{
		0<<32 | uint64(idFirst),
		2<<32 | uint64(idSecond), 2<<32 | uint64(idFirst), 2<<32 | uint64(idSecond),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("blockKeys = %v, want %v", got, want)
	}
}

// TestNewBuilderRejectsUnusableBlockFeatures: a blocking feature name the
// schema lacks, or one naming a non-categorical feature, blocks nothing, so
// the graph would come out edgeless without a word; NewBuilder refuses it,
// and refuses an empty list unless LSH supplies the keys.
func TestNewBuilderRejectsUnusableBlockFeatures(t *testing.T) {
	for _, feats := range [][]string{nil, {"topic", "topik"}, {"score"}, {"topic", "emb"}} {
		if _, err := NewBuilder(schema, GraphConfig{BlockFeatures: feats}, nil); err == nil {
			t.Errorf("BlockFeatures %q: NewBuilder accepted it", feats)
		}
	}
	if _, err := NewBuilder(schema, GraphConfig{LSH: LSHConfig{Enable: true}}, nil); err != nil {
		t.Errorf("LSH without BlockFeatures: %v", err)
	}
}

package labelprop

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crossmodal/internal/feature"
)

var schema = feature.MustSchema(
	feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
	feature.Def{Name: "score", Kind: feature.Numeric, Set: "D", Servable: true},
	feature.Def{Name: "emb", Kind: feature.Embedding, Set: "I", Servable: true, Dim: 2},
)

// clusterVecs builds two clusters: topic "a" near embedding (1,0), topic "b"
// near (0,1). Returns vectors and cluster assignments.
func clusterVecs(n int, seed int64) ([]*feature.Vector, []int) {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]*feature.Vector, n)
	clusters := make([]int, n)
	for i := range vecs {
		v := feature.NewVector(schema)
		c := i % 2
		clusters[i] = c
		if c == 0 {
			v.MustSet("topic", feature.CategoricalValue("a"))
			v.MustSet("emb", feature.EmbeddingValue([]float64{1 + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1}))
			v.MustSet("score", feature.NumericValue(1+rng.NormFloat64()*0.1))
		} else {
			v.MustSet("topic", feature.CategoricalValue("b"))
			v.MustSet("emb", feature.EmbeddingValue([]float64{rng.NormFloat64() * 0.1, 1 + rng.NormFloat64()*0.1}))
			v.MustSet("score", feature.NumericValue(5+rng.NormFloat64()*0.1))
		}
		vecs[i] = v
	}
	return vecs, clusters
}

// TestBuildGraphExact: with every vertex in one block and the cap lifted,
// BuildGraph is the exact kNN graph, whose neighbors come from the vertex's
// own cluster.
func TestBuildGraphExact(t *testing.T) {
	vecs, clusters := clusterVecs(40, 1)
	scales := feature.FitScales(schema, vecs)
	cfg, blocked := oneBlock(GraphConfig{K: 5}, vecs)
	g, err := BuildGraph(context.Background(), cfg, blocked, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphEqual(exactGraph(GraphConfig{K: 5}, vecs, scales), g); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 40 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	// Neighbors should overwhelmingly come from the same cluster.
	same, total := 0, 0
	for i := 0; i < g.NumVertices(); i++ {
		for _, e := range g.Neighbors(i) {
			total++
			if clusters[i] == clusters[e.To] {
				same++
			}
		}
	}
	if frac := float64(same) / float64(total); frac < 0.9 {
		t.Errorf("same-cluster edge fraction = %.3f, want > 0.9", frac)
	}
}

func TestBuildGraphBlockedMatchesClusters(t *testing.T) {
	vecs, clusters := clusterVecs(200, 2)
	g, err := BuildGraph(context.Background(), GraphConfig{
		K: 5, BlockFeatures: []string{"topic"}, MaxCandidates: 50, Seed: 3,
	}, vecs, feature.FitScales(schema, vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumVertices(); i++ {
		for _, e := range g.Neighbors(i) {
			if clusters[i] != clusters[e.To] {
				t.Fatalf("blocked graph linked across clusters: %d-%d", i, e.To)
			}
		}
	}
}

func TestGraphSymmetry(t *testing.T) {
	vecs, _ := clusterVecs(60, 4)
	g, err := BuildGraph(context.Background(), GraphConfig{K: 4, BlockFeatures: []string{"topic"}}, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumVertices(); i++ {
		for _, e := range g.Neighbors(i) {
			found := false
			for _, back := range g.Neighbors(e.To) {
				if back.To == i {
					if math.Abs(back.Weight-e.Weight) > 1e-12 {
						t.Fatalf("asymmetric weight %v vs %v", back.Weight, e.Weight)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no reverse", i, e.To)
			}
		}
	}
}

func TestBuildGraphEmpty(t *testing.T) {
	if _, err := BuildGraph(context.Background(), GraphConfig{}, nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestPropagateTwoClusters(t *testing.T) {
	vecs, clusters := clusterVecs(100, 5)
	g := exactGraph(GraphConfig{K: 6}, vecs, feature.FitScales(schema, vecs))
	// Seed one positive in cluster 0, one negative in cluster 1.
	seeds := map[int]float64{}
	for i, c := range clusters {
		if c == 0 && len(seeds) == 0 {
			seeds[i] = 1
		} else if c == 1 {
			seeds[i] = 0
			break
		}
	}
	res, err := Propagate(context.Background(), g, seeds, PropConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clusters {
		if _, isSeed := seeds[i]; isSeed || !res.Reached[i] {
			continue
		}
		if c == 0 && res.Scores[i] < 0.6 {
			t.Errorf("cluster-0 vertex %d score %.3f, want high", i, res.Scores[i])
		}
		if c == 1 && res.Scores[i] > 0.4 {
			t.Errorf("cluster-1 vertex %d score %.3f, want low", i, res.Scores[i])
		}
	}
}

func TestPropagateClampsSeeds(t *testing.T) {
	vecs, _ := clusterVecs(30, 6)
	g := exactGraph(GraphConfig{K: 4}, vecs, nil)
	seeds := map[int]float64{0: 1, 1: 0}
	res, err := Propagate(context.Background(), g, seeds, PropConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 1 || res.Scores[1] != 0 {
		t.Errorf("seed scores drifted: %v, %v", res.Scores[0], res.Scores[1])
	}
}

func TestPropagateScoresBounded(t *testing.T) {
	vecs, _ := clusterVecs(80, 7)
	g := exactGraph(GraphConfig{K: 5}, vecs, nil)
	seeds := map[int]float64{0: 1, 3: 0, 7: 1}
	res, err := Propagate(context.Background(), g, seeds, PropConfig{shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", i, s)
		}
	}
}

func TestPropagateValidation(t *testing.T) {
	vecs, _ := clusterVecs(10, 8)
	g := exactGraph(GraphConfig{K: 2}, vecs, nil)
	ctx := context.Background()
	if _, err := Propagate(ctx, g, nil, PropConfig{}); err == nil {
		t.Error("expected error for no seeds")
	}
	if _, err := Propagate(ctx, g, map[int]float64{99: 1}, PropConfig{}); err == nil {
		t.Error("expected error for out-of-range seed")
	}
	if _, err := Propagate(ctx, g, map[int]float64{0: 2}, PropConfig{}); err == nil {
		t.Error("expected error for out-of-range score")
	}
}

func TestPropagateUnreachedStayAtPrior(t *testing.T) {
	// Two disconnected components: seeds only in the first.
	a := feature.NewVector(schema)
	a.MustSet("topic", feature.CategoricalValue("a"))
	b := feature.NewVector(schema)
	b.MustSet("topic", feature.CategoricalValue("b"))
	vecs := []*feature.Vector{a, a.Clone(), b, b.Clone()}
	g := exactGraph(GraphConfig{K: 2, MinWeight: 0.5}, vecs, nil)
	res, err := Propagate(context.Background(), g, map[int]float64{0: 1}, PropConfig{Prior: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached[2] || res.Reached[3] {
		t.Fatal("disconnected vertices marked reached")
	}
	if res.Scores[2] != 0.25 || res.Scores[3] != 0.25 {
		t.Errorf("unreached scores = %v, %v; want prior 0.25", res.Scores[2], res.Scores[3])
	}
	if !res.Reached[1] || res.Scores[1] < 0.9 {
		t.Errorf("connected twin should converge to seed: reached=%v score=%v", res.Reached[1], res.Scores[1])
	}
}

// TestPropagateFixedPoint checks what "converged" means on random blocked
// graphs: every reached non-seed vertex scores the weighted mean of its
// neighbours' scores to within tol (one Jacobi step moves nothing further
// than that), seeds keep their clamped value, and
// vertices no seed reaches — the corpus has whole unseeded topics and
// vertices without any block key — rest exactly at the prior.
func TestPropagateFixedPoint(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, vecs := blockCorpus(500, 60+seed)
		cfg := GraphConfig{K: 6, Seed: seed, BlockFeatures: []string{"topic"}, MaxCandidates: 30}
		g, err := BuildGraph(context.Background(), cfg, vecs, feature.Scales{"score": 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		seeds := map[int]float64{3: 1} // vertex 3 has no block key: an isolated seed
		for len(seeds) < 25 {
			// Topics t8 and t9 get no seed; blocking on the topic confines
			// edges to it, so their vertices stay unreached.
			if i := rng.Intn(len(vecs)); len(g.Neighbors(i)) > 0 && vecs[i].CategoryNames(0)[0] < "t8" {
				seeds[i] = float64(rng.Intn(2))
			}
		}
		pcfg := PropConfig{maxIters: 2000, tol: 1e-6, Prior: 0.2, shards: 3}
		res, err := Propagate(context.Background(), g, seeds, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters >= pcfg.maxIters {
			t.Fatalf("seed %d: no convergence in %d iterations", seed, res.Iters)
		}
		reached, unreached := 0, 0
		for i, score := range res.Scores {
			want, isSeed := seeds[i]
			switch {
			case isSeed:
				if score != want || !res.Reached[i] {
					t.Fatalf("seed %d: seed vertex %d scores %v (reached %v), clamped at %v", seed, i, score, res.Reached[i], want)
				}
			case !res.Reached[i]:
				unreached++
				if score != pcfg.Prior {
					t.Fatalf("seed %d: unreached vertex %d scores %v, prior %v", seed, i, score, pcfg.Prior)
				}
			default:
				reached++
				var num, den float64
				for _, e := range g.Neighbors(i) {
					if !res.Reached[e.To] {
						t.Fatalf("seed %d: reached vertex %d has unreached neighbour %d", seed, i, e.To)
					}
					num += e.Weight * res.Scores[e.To]
					den += e.Weight
				}
				if d := math.Abs(score - num/den); !(d <= pcfg.tol) {
					t.Fatalf("seed %d: vertex %d scores %v, neighbour mean %v (off by %v > tol)", seed, i, score, num/den, d)
				}
			}
		}
		if reached < 100 || unreached < 50 {
			t.Fatalf("seed %d: %d reached, %d unreached non-seeds; the case lost a side", seed, reached, unreached)
		}
	}
}

func TestChooseCuts(t *testing.T) {
	scores := []float64{0.95, 0.9, 0.85, 0.6, 0.4, 0.15, 0.1, 0.05}
	labels := []int8{1, 1, -1, 1, -1, -1, -1, -1}
	cuts, err := ChooseCuts(scores, labels, 0.6, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if cuts.Pos > 0.9 || cuts.Pos < 0.05 {
		t.Errorf("Pos cut = %v", cuts.Pos)
	}
	if cuts.Neg >= cuts.Pos {
		t.Errorf("cuts overlap: %+v", cuts)
	}
	// Vote quality at the chosen cuts.
	var posRight, posVotes int
	for i, s := range scores {
		if s >= cuts.Pos {
			posVotes++
			if labels[i] > 0 {
				posRight++
			}
		}
	}
	if posVotes == 0 || float64(posRight)/float64(posVotes) < 0.6 {
		t.Errorf("positive cut precision %d/%d below target", posRight, posVotes)
	}
}

func TestChooseCutsErrors(t *testing.T) {
	if _, err := ChooseCuts(nil, nil, 0.9, 0.9); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ChooseCuts([]float64{1}, []int8{1, 1}, 0.9, 0.9); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestChooseCutsDegenerateOverlap(t *testing.T) {
	// All positives score low and negatives high: raw cuts would invert.
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int8{1, 1, -1, -1}
	cuts, err := ChooseCuts(scores, labels, 0.99, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if cuts.Neg >= cuts.Pos {
		t.Errorf("degenerate cuts not separated: %+v", cuts)
	}
}

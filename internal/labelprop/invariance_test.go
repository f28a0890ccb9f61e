package labelprop

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

func graphEqual(a, b *Graph) error {
	if a.NumVertices() != b.NumVertices() {
		return fmt.Errorf("vertex counts differ: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	for i := 0; i < a.NumVertices(); i++ {
		ea, eb := a.Neighbors(i), b.Neighbors(i)
		if len(ea) != len(eb) {
			return fmt.Errorf("vertex %d: %d vs %d neighbors", i, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				return fmt.Errorf("vertex %d neighbor %d: %+v vs %+v", i, j, ea[j], eb[j])
			}
		}
	}
	return nil
}

// TestBuildGraphWorkerInvariance requires the graph to be bit-identical for
// every worker count, with candidate sampling on and off (TestLSHWorkerInvariance
// covers LSH keys). Per-vertex RNGs are derived from (Seed, vertex index)
// alone and mapreduce preserves input order, so nothing may depend on
// scheduling.
func TestBuildGraphWorkerInvariance(t *testing.T) {
	vecs, _ := clusterVecs(150, 11)
	scales := feature.FitScales(schema, vecs)
	for _, cfg := range []GraphConfig{
		{K: 5, Seed: 3, BlockFeatures: []string{"topic"}, MaxCandidates: 40},
		{K: 5, Seed: 3, BlockFeatures: []string{"topic"}, MaxCandidates: 150},
	} {
		base := cfg
		base.Workers = 1
		ref, err := BuildGraph(context.Background(), base, vecs, scales)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			c := cfg
			c.Workers = workers
			g, err := BuildGraph(context.Background(), c, vecs, scales)
			if err != nil {
				t.Fatal(err)
			}
			if err := graphEqual(ref, g); err != nil {
				t.Errorf("MaxCandidates=%d: Workers=%d differs from Workers=1: %v", cfg.MaxCandidates, workers, err)
			}
		}
	}
}

// TestBuildGraphSeedDeterminism pins same-seed reproducibility and checks
// different seeds actually change the blocked candidate sampling.
func TestBuildGraphSeedDeterminism(t *testing.T) {
	vecs, _ := clusterVecs(150, 12)
	scales := feature.FitScales(schema, vecs)
	cfg := GraphConfig{K: 3, Seed: 9, BlockFeatures: []string{"topic"}, MaxCandidates: 20, Workers: 4}
	a, err := BuildGraph(context.Background(), cfg, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGraph(context.Background(), cfg, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphEqual(a, b); err != nil {
		t.Errorf("same seed not reproducible: %v", err)
	}
	cfg.Seed = 10
	c, err := BuildGraph(context.Background(), cfg, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	if graphEqual(a, c) == nil {
		t.Error("changing the seed left the sampled graph identical")
	}
}

// TestPropagateReachedMatchesBFS checks the compacting frontier scan marks
// exactly the vertices reachable from the seed set once iteration runs to
// convergence.
func TestPropagateReachedMatchesBFS(t *testing.T) {
	vecs, _ := clusterVecs(120, 13)
	scales := feature.FitScales(schema, vecs)
	g := exactGraph(GraphConfig{K: 4}, vecs, scales)
	seeds := map[int]float64{0: 1, 1: 0, 7: 1}
	res, err := Propagate(context.Background(), g, seeds, PropConfig{maxIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Reference BFS over the undirected graph from the seed vertices.
	want := make([]bool, g.NumVertices())
	queue := make([]int, 0, len(seeds))
	for v := range seeds {
		want[v] = true
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(v) {
			if !want[e.To] {
				want[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	for i := range want {
		if res.Reached[i] != want[i] {
			t.Errorf("vertex %d: Reached=%v, BFS says %v", i, res.Reached[i], want[i])
		}
	}
}

// TestPropagateShardInvariance requires identical scores for every shard
// count: sharding splits a Jacobi sweep, which reads only the previous
// iteration's values.
func TestPropagateShardInvariance(t *testing.T) {
	vecs, _ := clusterVecs(120, 14)
	scales := feature.FitScales(schema, vecs)
	g := exactGraph(GraphConfig{K: 4}, vecs, scales)
	seeds := map[int]float64{0: 1, 1: 0, 10: 1, 33: 0}
	ref, err := Propagate(context.Background(), g, seeds, PropConfig{shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 5, 16} {
		res, err := Propagate(context.Background(), g, seeds, PropConfig{shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != ref.Iters {
			t.Errorf("shards=%d: %d iters vs %d", shards, res.Iters, ref.Iters)
		}
		for i := range ref.Scores {
			if res.Scores[i] != ref.Scores[i] {
				t.Fatalf("shards=%d: score[%d] = %v vs %v", shards, i, res.Scores[i], ref.Scores[i])
			}
			if res.Reached[i] != ref.Reached[i] {
				t.Fatalf("shards=%d: reached[%d] = %v vs %v", shards, i, res.Reached[i], ref.Reached[i])
			}
		}
	}
}

// curateShapeVecs builds a corpus shaped like the graph stage of the
// in-memory curation benchmark: 13 categoricals holding ~13.6 IDs per vertex
// (all singletons but one), 168 fine topics nested in 6 coarse ones — so
// blocking on both gives ~170 distinct key lists and a block union of ~n/6 —
// four numerics and a 16-d embedding that only the later ("image") half of
// the vertices carries. The pinned digests build from it.
func curateShapeVecs(n int, seed int64) (*feature.Schema, []*feature.Vector) {
	return curateCorpus(n, seed, false)
}

// curateMixVecs is curateShapeVecs with the feature mix measured on the
// curation's own arena, which BenchmarkBuildGraph scores: cat8 (weight 3.18,
// the second heaviest) multi-valued on 62 % of vertices with 1.67 IDs on
// average, cat2 (weight 1.01) multi-valued on 71 %, and the embedding present
// on 80 % of vertices. On curateShapeVecs's singletons most pairs stop at
// their first feature, which the curation's pairs do not.
func curateMixVecs(n int, seed int64) (*feature.Schema, []*feature.Vector) {
	return curateCorpus(n, seed, true)
}

// curateCorpus builds both corpora; mix draws from its own generator, so the
// unmixed corpus stays what the digests pinned.
func curateCorpus(n int, seed int64, mix bool) (*feature.Schema, []*feature.Vector) {
	defs := []feature.Def{
		{Name: "topic", Kind: feature.Categorical},
		{Name: "topic_coarse", Kind: feature.Categorical},
		{Name: "objects", Kind: feature.Categorical},
	}
	for c := 0; c < 10; c++ {
		defs = append(defs, feature.Def{Name: fmt.Sprintf("cat%d", c), Kind: feature.Categorical})
	}
	for c := 0; c < 4; c++ {
		defs = append(defs, feature.Def{Name: fmt.Sprintf("num%d", c), Kind: feature.Numeric})
	}
	defs = append(defs, feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 16})
	s := feature.MustSchema(defs...)
	rng, mixRng := xrand.New(seed), xrand.New(seed^0x5bd1e995)
	// size draws a categorical's value count in the measured mix: one, else
	// two, else (one draw in twelve of the multi-valued) three.
	size := func(multi float64) int {
		switch {
		case mixRng.Float64() >= multi:
			return 1
		case mixRng.Intn(12) > 0:
			return 2
		default:
			return 3
		}
	}
	multi := map[int]float64{2: 0.71, 8: 0.62}
	vecs := make([]*feature.Vector, n)
	for i := range vecs {
		v := feature.NewVector(s)
		topic := rng.Intn(168)
		if rng.Intn(100) > 0 { // 1%: coarse topic only, six more key lists
			v.MustSet("topic", feature.CategoricalValue(fmt.Sprintf("t%d", topic)))
		}
		v.MustSet("topic_coarse", feature.CategoricalValue(fmt.Sprintf("c%d", topic%6)))
		objects := []string{fmt.Sprintf("o%d", topic%40)}
		for rng.Intn(5) < 2 {
			objects = append(objects, fmt.Sprintf("o%d", rng.Intn(40)))
		}
		v.MustSet("objects", feature.CategoricalValue(objects...))
		for c := 0; c < 10; c++ {
			first := (topic + rng.Intn(2+c)) % (3 + 2*c)
			vals := []string{fmt.Sprintf("v%d", first)}
			if p, ok := multi[c]; ok && mix {
				for k := size(p); k > 1; k-- { // distinct: the next values round the domain
					vals = append(vals, fmt.Sprintf("v%d", (first+k-1)%(3+2*c)))
				}
			}
			v.MustSet(fmt.Sprintf("cat%d", c), feature.CategoricalValue(vals...))
		}
		for c := 0; c < 4; c++ {
			v.MustSet(fmt.Sprintf("num%d", c), feature.NumericValue(float64(topic%(7+c))+rng.NormFloat64()))
		}
		if i >= n/2 || mix && mixRng.Float64() < 0.6 { // mixed: 50 % + 60 % of the other half
			emb := make([]float64, 16)
			for d := range emb {
				emb[d] = float64((topic>>(d%8))&1) + rng.NormFloat64()*0.3
			}
			v.MustSet("emb", feature.EmbeddingValue(emb))
		}
		vecs[i] = v
	}
	return s, vecs
}

// curateShapeWeights are edge weights shaped like the ones the in-memory
// curation benchmark learns (FitFeatureWeights): a few heavy categoricals
// late in schema order, several near the 0.02 floor early, light numerics,
// and the embedding left at the default 1. Uniform weights would score in
// schema order whatever order the kernel chose.
var curateShapeWeights = feature.Weights{
	"topic": 1.25, "topic_coarse": 0.99, "objects": 0.62,
	"cat0": 0.096, "cat1": 0.02, "cat2": 1.01, "cat3": 0.02, "cat4": 0.02,
	"cat5": 4.63, "cat6": 0.705, "cat7": 2.46, "cat8": 3.18, "cat9": 0.02,
	"num0": 0.02, "num1": 0.059, "num2": 0.02, "num3": 0,
}

// BenchmarkBuildGraph times one whole-corpus build over a corpus with the
// curation benchmark's shape and feature mix (curateMixVecs: 20 000
// vertices; MaxCandidates 200, K 10, curateShapeWeights), blocked on the
// topics, the same fed as 20 deltas
// before Graph() (the streamed pipeline's path), and with LSH band keys.
// Each case also reports the two halves of the tiled selection loop, each
// timed on its own over the built index: choosing (block union, samples,
// bucketing by union position) per vertex and scoring per candidate pair.
func BenchmarkBuildGraph(b *testing.B) {
	s, vecs := curateMixVecs(20000, 53)
	scales := feature.FitScales(s, vecs)
	blocked := GraphConfig{K: 10, Seed: 3, Workers: 1, BlockFeatures: []string{"topic", "topic_coarse"}, MaxCandidates: 200, Weights: curateShapeWeights}
	for _, tc := range []struct {
		name   string
		cfg    GraphConfig
		deltas int
	}{
		{"blocked", blocked, 1},
		{"blocked-chunked", blocked, 20},
		{"lsh", GraphConfig{K: 10, Seed: 3, Workers: 1, LSH: LSHConfig{Enable: true}, MaxCandidates: 200, Weights: curateShapeWeights}, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bld *Builder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if bld, err = NewBuilder(s, tc.cfg, scales); err != nil {
					b.Fatal(err)
				}
				step := len(vecs) / tc.deltas
				for lo := 0; lo < len(vecs); lo += step {
					if err := bld.ApplyDelta(context.Background(), vecs[lo:min(lo+step, len(vecs))]); err != nil {
						b.Fatal(err)
					}
				}
				bld.Graph()
			}
			b.StopTimer()
			sc := bld.newTileScratch()
			var choose, score time.Duration
			pairs, union := 0, 0
			for _, tl := range allTiles(bld) {
				t0 := time.Now()
				bld.sampleTile(tl, sc)
				t1 := time.Now()
				pairs += bld.scoreTile(tl, sc)
				score += time.Since(t1)
				choose += t1.Sub(t0)
				union += len(sc.seen.buf) * len(tl)
			}
			b.ReportMetric(float64(choose.Nanoseconds())/float64(len(vecs)), "candidates-ns/vertex")
			b.ReportMetric(float64(score.Nanoseconds())/float64(max(pairs, 1)), "score-ns/pair")
			b.ReportMetric(float64(union)/float64(len(vecs)), "union/vertex")
			b.ReportMetric(float64(len(bld.groupKeys)), "keylists")
		})
	}
}

func BenchmarkPropagate(b *testing.B) {
	vecs, _ := clusterVecs(600, 17)
	g := exactGraph(GraphConfig{K: 8}, vecs, feature.FitScales(schema, vecs))
	seeds := make(map[int]float64)
	for i := 0; i < 60; i++ {
		seeds[i*10] = float64(i % 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Propagate(context.Background(), g, seeds, PropConfig{shards: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

package labelprop

import (
	"context"
	"math"
	"testing"

	"crossmodal/internal/feature"
)

// applyChunked feeds vecs to a fresh Builder in chunks of the given size
// and returns the builder.
func applyChunked(t *testing.T, cfg GraphConfig, vecs []*feature.Vector, scales feature.Scales, chunk int) *Builder {
	t.Helper()
	b, err := NewBuilder(vecs[0].Schema(), cfg, scales)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(vecs); lo += chunk {
		hi := lo + chunk
		if hi > len(vecs) {
			hi = len(vecs)
		}
		if err := b.ApplyDelta(context.Background(), vecs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestBuilderDeltaMatchesBuildGraph is the delta-equivalence property the
// streaming pipeline's correctness rests on: N ApplyDelta calls over chunks
// must produce a graph bit-identical (exact edge sets and weight bits) to
// one BuildGraph over the concatenation — in all three candidate modes and
// at every chunking, including chunk size 1.
func TestBuilderDeltaMatchesBuildGraph(t *testing.T) {
	vecs := sweepVecs(240, 77)
	scales := feature.FitScales(sweepSchema, vecs)
	for _, tc := range []struct {
		name string
		cfg  GraphConfig
	}{
		{"allpairs", GraphConfig{K: 5, Seed: 3, Workers: 2}},
		{"blocked", GraphConfig{K: 5, Seed: 3, Workers: 2, BlockFeatures: []string{"topic"}, MaxCandidates: 40}},
		{"lsh", GraphConfig{K: 5, Seed: 3, Workers: 2, LSH: LSHConfig{Enable: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildGraph(context.Background(), tc.cfg, vecs, scales)
			if err != nil {
				t.Fatal(err)
			}
			if want.NumEdges() == 0 {
				t.Fatal("reference graph has no edges; test has no teeth")
			}
			for _, chunk := range []int{1, 7, 64, len(vecs)} {
				b := applyChunked(t, tc.cfg, vecs, scales, chunk)
				if err := graphEqual(want, b.Graph()); err != nil {
					t.Errorf("chunk=%d: %v", chunk, err)
				}
			}
		})
	}
}

// TestBuilderPrefixesMatchBuildGraph strengthens the property: after every
// chunk boundary the builder's graph must equal a from-scratch BuildGraph
// over the prefix seen so far — incremental state is never merely
// "eventually consistent".
func TestBuilderPrefixesMatchBuildGraph(t *testing.T) {
	vecs := sweepVecs(160, 78)
	scales := feature.FitScales(sweepSchema, vecs)
	for _, tc := range []struct {
		name string
		cfg  GraphConfig
	}{
		{"blocked", GraphConfig{K: 4, Seed: 9, Workers: 2, BlockFeatures: []string{"topic"}, MaxCandidates: 30}},
		{"lsh", GraphConfig{K: 4, Seed: 9, Workers: 2, LSH: LSHConfig{Enable: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBuilder(sweepSchema, tc.cfg, scales)
			if err != nil {
				t.Fatal(err)
			}
			const chunk = 40
			for lo := 0; lo < len(vecs); lo += chunk {
				if err := b.ApplyDelta(context.Background(), vecs[lo:lo+chunk]); err != nil {
					t.Fatal(err)
				}
				want, err := BuildGraph(context.Background(), tc.cfg, vecs[:lo+chunk], scales)
				if err != nil {
					t.Fatal(err)
				}
				if err := graphEqual(want, b.Graph()); err != nil {
					t.Errorf("prefix %d: %v", lo+chunk, err)
				}
			}
		})
	}
}

// TestBuilderEmptyDelta: a zero-length delta is a no-op.
func TestBuilderEmptyDelta(t *testing.T) {
	vecs, _ := clusterVecs(30, 21)
	scales := feature.FitScales(schema, vecs)
	cfg := GraphConfig{K: 3, Seed: 1}
	b, err := NewBuilder(schema, cfg, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDelta(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if b.NumVertices() != 0 {
		t.Fatalf("empty delta added %d vertices", b.NumVertices())
	}
	if err := b.ApplyDelta(context.Background(), vecs); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDelta(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	want, err := BuildGraph(context.Background(), cfg, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphEqual(want, b.Graph()); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderLSHConfigError: hasher construction failures surface from
// NewBuilder, not first use.
func TestBuilderLSHConfigError(t *testing.T) {
	embOnly := feature.MustSchema(
		feature.Def{Name: "emb", Kind: feature.Embedding, Set: "I", Servable: true, Dim: 2},
	)
	cfg := GraphConfig{LSH: LSHConfig{Enable: true}}
	if _, err := NewBuilder(embOnly, cfg, nil); err == nil {
		t.Fatal("a schema without categorical features did not fail NewBuilder")
	}
}

// TestPropagateWarm: warm-starting from converged scores must land on the
// same fixed point (the clamped system's solution is unique on the reached
// component) without exceeding the cold iteration count, and the reached
// set — a pure graph property — must be identical.
func TestPropagateWarm(t *testing.T) {
	vecs, clusters := clusterVecs(120, 31)
	scales := feature.FitScales(schema, vecs)
	g, err := BuildGraph(context.Background(), GraphConfig{K: 6, Seed: 2}, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int]float64{}
	for i, c := range clusters {
		if len(seeds) < 6 && c == 0 {
			seeds[i] = 1
		} else if len(seeds) < 12 && c == 1 {
			seeds[i] = 0
		}
	}
	cfg := PropConfig{tol: 1e-6}
	cold, err := Propagate(context.Background(), g, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := PropagateWarm(context.Background(), g, seeds, cfg, cold.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iters > cold.Iters {
		t.Errorf("warm start took %d iters, cold took %d", warm.Iters, cold.Iters)
	}
	for i := range cold.Scores {
		if warm.Reached[i] != cold.Reached[i] {
			t.Fatalf("vertex %d: warm reached %v, cold %v", i, warm.Reached[i], cold.Reached[i])
		}
		if d := math.Abs(warm.Scores[i] - cold.Scores[i]); d > 1e-4 {
			t.Errorf("vertex %d: warm score %v vs cold %v (|Δ|=%g)", i, warm.Scores[i], cold.Scores[i], d)
		}
	}
}

// TestPropagateWarmFromPrefix mirrors the streaming use: propagate over a
// prefix graph, grow the graph, then warm-start the full run from the
// prefix scores. The converged scores must match a cold full run.
func TestPropagateWarmFromPrefix(t *testing.T) {
	vecs, clusters := clusterVecs(160, 32)
	scales := feature.FitScales(schema, vecs)
	cfg := GraphConfig{K: 6, Seed: 4}
	const prefix = 100

	b, err := NewBuilder(schema, cfg, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDelta(context.Background(), vecs[:prefix]); err != nil {
		t.Fatal(err)
	}
	seeds := map[int]float64{}
	for i, c := range clusters[:prefix] {
		if len(seeds) < 4 && c == 0 {
			seeds[i] = 1
		} else if len(seeds) < 8 && c == 1 {
			seeds[i] = 0
		}
	}
	pcfg := PropConfig{tol: 1e-7, maxIters: 200}
	prev, err := Propagate(context.Background(), b.Graph(), seeds, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := b.ApplyDelta(context.Background(), vecs[prefix:]); err != nil {
		t.Fatal(err)
	}
	warm, err := PropagateWarm(context.Background(), b.Graph(), seeds, pcfg, prev.Scores)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Propagate(context.Background(), b.Graph(), seeds, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Scores {
		if warm.Reached[i] != cold.Reached[i] {
			t.Fatalf("vertex %d: warm reached %v, cold %v", i, warm.Reached[i], cold.Reached[i])
		}
		if d := math.Abs(warm.Scores[i] - cold.Scores[i]); d > 1e-4 {
			t.Errorf("vertex %d: warm score %v vs cold %v (|Δ|=%g)", i, warm.Scores[i], cold.Scores[i], d)
		}
	}
}

// TestPropagateWarmIgnoresGarbagePrev: out-of-range or NaN warm scores fall
// back to the prior instead of poisoning the iteration.
func TestPropagateWarmIgnoresGarbagePrev(t *testing.T) {
	vecs, _ := clusterVecs(40, 33)
	scales := feature.FitScales(schema, vecs)
	g, err := BuildGraph(context.Background(), GraphConfig{K: 4, Seed: 5}, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int]float64{0: 1, 1: 0}
	prev := make([]float64, 40)
	for i := range prev {
		switch i % 3 {
		case 0:
			prev[i] = math.NaN()
		case 1:
			prev[i] = -7
		default:
			prev[i] = 42
		}
	}
	warm, err := PropagateWarm(context.Background(), g, seeds, PropConfig{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Propagate(context.Background(), g, seeds, PropConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Scores {
		if math.Float64bits(warm.Scores[i]) != math.Float64bits(cold.Scores[i]) {
			t.Fatalf("vertex %d: garbage warm scores changed result: %v vs %v", i, warm.Scores[i], cold.Scores[i])
		}
	}
}

package labelprop

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"crossmodal/internal/feature"
)

var sweepSchema = feature.MustSchema(
	feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
	feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C", Servable: true},
	feature.Def{Name: "score", Kind: feature.Numeric, Set: "D", Servable: true},
	feature.Def{Name: "emb", Kind: feature.Embedding, Set: "I", Servable: true, Dim: 8},
)

// sweepVecs builds a corpus shaped like the LSH motivation: coarse topics
// (8 values, so blocking scans n/8 vertices per query) but fine-grained
// similarity structure in ~24-member tag subclusters. Members of a
// subcluster share 4–6 of 6 base tags plus the topic (pairwise Jaccard
// ≥ 0.55 over hashed categorical elements); cross-subcluster overlap is
// rare (large tag vocabulary), so band collisions stay near subcluster
// size while blocks grow linearly with n.
func sweepVecs(n int, seed int64) []*feature.Vector {
	rng := rand.New(rand.NewSource(seed))
	const subSize = 24
	nSub := (n + subSize - 1) / subSize
	baseTags := make([][]string, nSub)
	centers := make([][]float64, nSub)
	scores := make([]float64, nSub)
	for s := range baseTags {
		tags := make([]string, 6)
		for t := range tags {
			tags[t] = "g" + strconv.Itoa(rng.Intn(4096))
		}
		baseTags[s] = tags
		c := make([]float64, 8)
		for d := range c {
			c[d] = rng.NormFloat64()
		}
		centers[s] = c
		scores[s] = rng.NormFloat64() * 10
	}
	vecs := make([]*feature.Vector, n)
	for i := range vecs {
		s := i / subSize
		v := feature.NewVector(sweepSchema)
		v.MustSet("topic", feature.CategoricalValue("t"+strconv.Itoa(s%8)))
		drop := rng.Intn(6)
		tags := make([]string, 0, 6)
		for t, tag := range baseTags[s] {
			if t != drop {
				tags = append(tags, tag)
			}
		}
		tags = append(tags, "x"+strconv.Itoa(rng.Intn(1<<30)))
		v.MustSet("tags", feature.CategoricalValue(tags...))
		emb := make([]float64, 8)
		for d := range emb {
			emb[d] = centers[s][d] + rng.NormFloat64()*0.05
		}
		v.MustSet("emb", feature.EmbeddingValue(emb))
		v.MustSet("score", feature.NumericValue(scores[s]+rng.NormFloat64()*0.1))
		vecs[i] = v
	}
	return vecs
}

// TestLSHRecallFloor is LSH's quality gate: at the default banding, LSH must
// recover at least 95% of the exact kNN graph's edges, and every edge both
// graphs share must carry the identical weight — LSH keys change candidate
// generation, never scoring.
func TestLSHRecallFloor(t *testing.T) {
	const n = 960
	vecs := sweepVecs(n, 41)
	scales := feature.FitScales(sweepSchema, vecs)
	ref := exactGraph(GraphConfig{K: 10}, vecs, scales)
	approx := GraphConfig{K: 10, Seed: 5, MaxCandidates: n, LSH: LSHConfig{Enable: true}}
	g, err := BuildGraph(context.Background(), approx, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	if r := Recall(ref, g); r < 0.95 {
		t.Errorf("LSH recall = %.4f, want >= 0.95", r)
	}
	for i := 0; i < n; i++ {
		want := make(map[int]float64, len(ref.Neighbors(i)))
		for _, e := range ref.Neighbors(i) {
			want[e.To] = e.Weight
		}
		for _, e := range g.Neighbors(i) {
			if w, ok := want[e.To]; ok && w != e.Weight {
				t.Fatalf("edge %d-%d: LSH weight %v vs exact %v", i, e.To, e.Weight, w)
			}
		}
	}
}

// TestLSHWorkerInvariance extends the worker-invariance contract to the LSH
// path: signatures are per-vertex functions of (Seed, vertex), the bucket
// table is built serially, and sampling reuses the per-vertex RNG — so the
// graph may not depend on scheduling.
func TestLSHWorkerInvariance(t *testing.T) {
	vecs := sweepVecs(300, 17)
	scales := feature.FitScales(sweepSchema, vecs)
	cfg := GraphConfig{K: 6, Seed: 3, MaxCandidates: 30, LSH: LSHConfig{Enable: true}}
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
			t.Errorf("Workers=%d differs from Workers=1: %v", workers, err)
		}
	}
	// Same seed reproduces; a different seed re-salts the hash family and
	// resamples candidates.
	again, err := BuildGraph(context.Background(), base, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphEqual(ref, again); err != nil {
		t.Errorf("same seed not reproducible: %v", err)
	}
	reseeded := base
	reseeded.Seed = 4
	other, err := BuildGraph(context.Background(), reseeded, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	if graphEqual(ref, other) == nil {
		t.Error("changing the seed left the LSH graph identical")
	}
}

// TestLSHSparseCategoricals covers vertices with nothing to hash: they are
// left out of the index and get no edges, without disturbing the rest.
func TestLSHSparseCategoricals(t *testing.T) {
	vecs, _ := clusterVecs(60, 7)
	// Strip the only categorical feature from the last 5 vertices.
	for i := 55; i < 60; i++ {
		v := feature.NewVector(schema)
		v.MustSet("emb", vecs[i].Get("emb"))
		v.MustSet("score", vecs[i].Get("score"))
		vecs[i] = v
	}
	scales := feature.FitScales(schema, vecs)
	g, err := BuildGraph(context.Background(), GraphConfig{
		K: 5, Seed: 1, LSH: LSHConfig{Enable: true},
	}, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	for i := 55; i < 60; i++ {
		if len(g.Neighbors(i)) != 0 {
			t.Errorf("unhashable vertex %d has %d edges", i, len(g.Neighbors(i)))
		}
	}
	if g.NumEdges() == 0 {
		t.Error("hashable vertices built no edges")
	}
}

// TestLSHConfigErrors covers the misconfiguration path: nothing to hash.
func TestLSHConfigErrors(t *testing.T) {
	embOnly := feature.MustSchema(
		feature.Def{Name: "emb", Kind: feature.Embedding, Set: "I", Servable: true, Dim: 2},
	)
	v := feature.NewVector(embOnly)
	v.MustSet("emb", feature.EmbeddingValue([]float64{1, 0}))
	_, err := BuildGraph(context.Background(), GraphConfig{
		K: 3, LSH: LSHConfig{Enable: true},
	}, []*feature.Vector{v, v}, nil)
	if err == nil {
		t.Error("schema without categorical features: expected error")
	}
}

// graphOf lays hand-written directed selections out in a Graph's slabs and
// symmetrizes them, the way a Builder delta does.
func graphOf(directed [][]Edge) *Graph {
	g := &Graph{k: 1, dirLen: make([]int32, len(directed))}
	for _, es := range directed {
		g.k = max(g.k, len(es))
	}
	g.dir = make([]Edge, len(directed)*g.k)
	for i, es := range directed {
		g.dirLen[i] = int32(copy(g.dir[i*g.k:], es))
	}
	g.symmetrize()
	return g
}

// symmetrize returns the adjacency lists graphOf(directed) ends with.
func symmetrize(directed [][]Edge) [][]Edge {
	g := graphOf(directed)
	adj := make([][]Edge, g.NumVertices())
	for i := range adj {
		adj[i] = g.Neighbors(i)
	}
	return adj
}

// TestRecallMetric pins the Recall helper on hand-built graphs.
func TestRecallMetric(t *testing.T) {
	ref := graphOf([][]Edge{{{To: 1, Weight: 1}, {To: 2, Weight: 0.5}}, {}, {}})
	if ref.NumEdges() != 2 || len(ref.Neighbors(2)) != 1 {
		t.Fatalf("reference graph: %+v", ref)
	}
	if r := Recall(ref, ref); r != 1 {
		t.Errorf("self recall = %v", r)
	}
	half := graphOf([][]Edge{{{To: 1, Weight: 1}}, {}, {}})
	if r := Recall(ref, half); r != 0.5 {
		t.Errorf("recall = %v, want 0.5", r)
	}
	empty := graphOf([][]Edge{{}, {}, {}})
	if r := Recall(empty, ref); r != 1 {
		t.Errorf("empty reference recall = %v, want 1", r)
	}
}

// TestSymmetrizeEdgeCases covers symmetrize directly: empty graph, single
// vertex, one-sided selections mirrored, and double selections collapsing
// to one edge.
func TestSymmetrizeEdgeCases(t *testing.T) {
	if adj := symmetrize([][]Edge{}); len(adj) != 0 {
		t.Errorf("empty graph symmetrized to %d vertices", len(adj))
	}
	if adj := symmetrize([][]Edge{{}}); len(adj) != 1 || len(adj[0]) != 0 {
		t.Errorf("single vertex symmetrized to %+v", adj)
	}
	// 0 selected 1; 1 selected nothing; both sides must end with the edge.
	adj := symmetrize([][]Edge{{{To: 1, Weight: 0.7}}, {}})
	if len(adj[0]) != 1 || adj[0][0] != (Edge{To: 1, Weight: 0.7}) {
		t.Errorf("vertex 0: %+v", adj[0])
	}
	if len(adj[1]) != 1 || adj[1][0] != (Edge{To: 0, Weight: 0.7}) {
		t.Errorf("vertex 1: %+v", adj[1])
	}
	// Mutual selection (equal weights, similarity is symmetric) collapses.
	adj = symmetrize([][]Edge{
		{{To: 1, Weight: 0.9}},
		{{To: 0, Weight: 0.9}},
	})
	if len(adj[0]) != 1 || len(adj[1]) != 1 {
		t.Errorf("mutual selection not collapsed: %+v", adj)
	}
	// Output must be sorted by To for every vertex.
	adj = symmetrize([][]Edge{
		{{To: 3, Weight: 0.5}, {To: 1, Weight: 0.4}},
		{},
		{{To: 0, Weight: 0.3}},
		{},
	})
	for i, es := range adj {
		for j := 1; j < len(es); j++ {
			if es[j-1].To >= es[j].To {
				t.Errorf("vertex %d adjacency not sorted: %+v", i, es)
			}
		}
	}
}

// TestDedupeSetFloodAndReset covers the bit set directly: a flood of
// duplicate adds keeps one copy, a reset forgets every member (across word
// boundaries) and leaves no other bit behind, and a set reused after reset
// takes every element afresh.
func TestDedupeSetFloodAndReset(t *testing.T) {
	s := newDedupeSet(130)
	for i := 0; i < 1000; i++ {
		s.add(2)
	}
	if len(s.buf) != 1 || s.buf[0] != 2 {
		t.Fatalf("duplicate flood produced buf %v", s.buf)
	}
	for _, j := range []int32{63, 64, 129, 0, 64} {
		s.add(j)
	}
	if want := []int32{2, 63, 64, 129, 0}; !slices.Equal(s.buf, want) {
		t.Fatalf("members %v, want %v in insertion order", s.buf, want)
	}
	s.reset()
	if len(s.buf) != 0 {
		t.Fatal("reset did not clear the buffer")
	}
	for w, bits := range s.bits {
		if bits != 0 {
			t.Fatalf("word %d still holds %#x after reset", w, bits)
		}
	}
	for _, j := range []int32{2, 129, 64} {
		if !s.add(j) {
			t.Fatalf("element %d from before the reset still marked present", j)
		}
	}
}

// sweepRefs caches the sampling-free blocked reference graph per corpus size
// so recall is computed once per size, not once per bench iteration.
var sweepRefs = map[int]*Graph{}

func sweepRecallRef(b *testing.B, n int, vecs []*feature.Vector, scales feature.Scales) *Graph {
	b.Helper()
	if g, ok := sweepRefs[n]; ok {
		return g
	}
	ref, err := BuildGraph(context.Background(), GraphConfig{
		K: 10, Seed: 7, BlockFeatures: []string{"topic"}, MaxCandidates: n,
	}, vecs, scales)
	if err != nil {
		b.Fatal(err)
	}
	sweepRefs[n] = ref
	return ref
}

// BenchmarkBuildGraphSweep sizes BuildGraph across 10³–10⁵ vertices for
// both key kinds, each at its default candidate cap (300); the reported
// "recall" metric compares each against the sampling-free blocked reference
// (computed for n ≤ 10⁴, where the reference is affordable). The LSH column
// also runs n = 10⁵, where block scans are the dominant blocked-path cost
// and band blocks keep per-vertex work near subcluster size.
func BenchmarkBuildGraphSweep(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000, 100000} {
		vecs := sweepVecs(n, 21)
		scales := feature.FitScales(sweepSchema, vecs)
		for _, mode := range []string{"blocked", "lsh"} {
			if mode == "blocked" && n > 50000 {
				continue // block scans already dominate at 5·10⁴
			}
			cfg := GraphConfig{K: 10, Seed: 7, Workers: 1, BlockFeatures: []string{"topic"}}
			if mode == "lsh" {
				cfg.LSH = LSHConfig{Enable: true}
			}
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				var ref *Graph
				if n <= 10000 {
					ref = sweepRecallRef(b, n, vecs, scales)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var g *Graph
				for i := 0; i < b.N; i++ {
					var err error
					if g, err = BuildGraph(context.Background(), cfg, vecs, scales); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if ref != nil {
					// After ResetTimer: it deletes user-reported metrics.
					b.ReportMetric(Recall(ref, g), "recall")
				}
			})
		}
	}
}

// TestLSHBandKeysPinned pins the lshBands band keys of one fixed vector.
// Signatures hash category strings, so they depend on (Seed, schema
// position, content) alone; the intern IDs the categories receive follow
// whatever was featurized first — here 1000 unrelated strings — and must not
// leak in.
func TestLSHBandKeysPinned(t *testing.T) {
	for i := 0; i < 1000; i++ {
		feature.InternID(fmt.Sprintf("lsh-pin-noise-%d", i))
	}
	v := feature.NewVector(sweepSchema)
	v.MustSet("topic", feature.CategoricalValue("lsh-pin-topic"))
	v.MustSet("tags", feature.CategoricalValue("lsh-pin-a", "lsh-pin-b", "lsh-pin-c", "lsh-pin-a"))
	h, err := newLSHHasher(sweepSchema, GraphConfig{Seed: 5, LSH: LSHConfig{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{
		0x2c6cf10f083eeef9, 0xcb5e1cd1c23fddcd, 0xa21a2e5fe97bb4e2,
		0x0ff3e5027caad9f0, 0xe7a448c6981ab7b0, 0xd3f8e8cbfe47aa66,
		0x5a88849b3f1c160a, 0x9666d082804777fc, 0xab651f95694f2b2c,
		0x7f90e8e8b709397c, 0x7de6b64bc8b5dde7, 0xd5754bc67aed85b6,
		0xe750ee103edc3dfa, 0x759ae974f1abcece, 0x5c214e652650b010,
		0xc9f919dde5bb0e78, 0x121335e3ee942e85, 0x638c0ff6f29f9259,
		0xb3b7f054dce5d0a1, 0x1381928b3feea188, 0x8ea9257c65d4a42b,
	}
	if got := h.sign(rowOf(v), 0, new([]uint32), nil); !slices.Equal(got, want) {
		t.Fatalf("band keys %#x, pinned %#x", got, want)
	}
}

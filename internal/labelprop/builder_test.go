package labelprop

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/trace"
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
// one BuildGraph over the concatenation — with categorical and LSH block
// keys, and with every vertex in one block (where the one-shot graph must be
// the exact reference) — at every chunking, including chunk size 1.
func TestBuilderDeltaMatchesBuildGraph(t *testing.T) {
	vecs := sweepVecs(240, 77)
	scales := feature.FitScales(sweepSchema, vecs)
	allPairs, allVecs := oneBlock(GraphConfig{K: 5, Seed: 3, Workers: 2}, vecs)
	for _, tc := range []struct {
		name string
		cfg  GraphConfig
		vecs []*feature.Vector
	}{
		{"allpairs", allPairs, allVecs},
		{"blocked", GraphConfig{K: 5, Seed: 3, Workers: 2, BlockFeatures: []string{"topic"}, MaxCandidates: 40}, vecs},
		{"lsh", GraphConfig{K: 5, Seed: 3, Workers: 2, LSH: LSHConfig{Enable: true}}, vecs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildGraph(context.Background(), tc.cfg, tc.vecs, scales)
			if err != nil {
				t.Fatal(err)
			}
			if want.NumEdges() == 0 {
				t.Fatal("reference graph has no edges; test has no teeth")
			}
			if tc.name == "allpairs" {
				if err := graphEqual(exactGraph(GraphConfig{K: 5}, vecs, scales), want); err != nil {
					t.Fatalf("one block differs from the exact graph: %v", err)
				}
			}
			for _, chunk := range []int{1, 7, 64, len(vecs)} {
				b := applyChunked(t, tc.cfg, tc.vecs, scales, chunk)
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

// TestFlushSelectsEachVertexOnce: deferred selection does a one-shot build's
// work however the corpus arrives. A 20-delta build's one Flush (through
// Graph) selects every vertex once and scores exactly the candidate pairs the
// one-shot build scores — one per sampled candidate — and the graphs match.
func TestFlushSelectsEachVertexOnce(t *testing.T) {
	if trace.Enabled() {
		t.Fatal("tracer already installed; tests must not leak the process default")
	}
	s, vecs := curateShapeVecs(2000, 53)
	scales := feature.FitScales(s, vecs)
	cfg := GraphConfig{K: 10, Seed: 3, Workers: 2, BlockFeatures: []string{"topic", "topic_coarse"}, MaxCandidates: 200}
	build := func(deltas int) (string, *Builder) {
		tr := trace.New()
		trace.SetDefault(tr)
		defer trace.SetDefault(nil)
		b := applyChunked(t, cfg, vecs, scales, len(vecs)/deltas)
		b.Graph()
		var summary strings.Builder
		if err := tr.WriteSummary(&summary); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(summary.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "labelprop.flush ") {
				return line[strings.Index(line, "["):], b
			}
		}
		t.Fatalf("%d deltas: no labelprop.flush span in\n%s", deltas, summary.String())
		return "", nil
	}
	oneShot, b := build(1)
	chunked, bc := build(20)
	sc, buf := b.newTileScratch(), make([]int32, len(vecs))
	pairs := 0
	for i := range vecs {
		pairs += len(candidateIDs(b, i, sc, buf))
	}
	want := fmt.Sprintf("[selected=%d pairs=%d vertices=%d]", len(vecs), pairs, len(vecs))
	if oneShot != want || chunked != want {
		t.Errorf("flush spans: one-shot %s, 20 deltas %s; want %s each", oneShot, chunked, want)
	}
	if err := graphEqual(b.Graph(), bc.Graph()); err != nil {
		t.Error(err)
	}
}

// TestFlushAfterCanceledFlush: a Flush whose context is canceled fails with
// the context's error and leaves the deltas pending, so the next Flush builds
// the one-shot graph.
func TestFlushAfterCanceledFlush(t *testing.T) {
	vecs := sweepVecs(200, 79)
	scales := feature.FitScales(sweepSchema, vecs)
	cfg := GraphConfig{K: 4, Seed: 5, Workers: 2, BlockFeatures: []string{"topic"}, MaxCandidates: 30}
	want, err := BuildGraph(context.Background(), cfg, vecs, scales)
	if err != nil {
		t.Fatal(err)
	}
	b := applyChunked(t, cfg, vecs, scales, 70)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush under a canceled context returned %v", err)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := graphEqual(want, b.Graph()); err != nil {
		t.Error(err)
	}
}

// TestBuilderEmptyDelta: a zero-length delta is a no-op.
func TestBuilderEmptyDelta(t *testing.T) {
	vecs, _ := clusterVecs(30, 21)
	scales := feature.FitScales(schema, vecs)
	cfg := GraphConfig{K: 3, Seed: 1, BlockFeatures: []string{"topic"}}
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

// adjacencyDigest hashes g's adjacency in vertex order: each vertex's
// neighbor count, then each neighbor's index and weight bits.
func adjacencyDigest(g *Graph) string {
	h := sha256.New()
	var buf []byte
	for i := 0; i < g.NumVertices(); i++ {
		es := g.Neighbors(i)
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(es)))
		for _, e := range es {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.To))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAdjacencyDigestsPinned pins one blocked and one LSH graph over a fixed
// corpus shaped like the curation graph, bit for bit. The digests were
// recorded when each key kind still had its own index and candidate
// enumerator; the one block index must reproduce both. Float results differ
// between architectures, so each pinned architecture has its own digests
// and the rest skip.
func TestAdjacencyDigestsPinned(t *testing.T) {
	pinned := map[string][2]string{
		"amd64": {"2bbca1e1f8c3be94f0aa33171a072fc07d43b3b97c10d22ad0655345809728bb", "03cf012fec36c92a045607c5b85e510d26c59d57a2768d1bc7a3cb9de85e5181"},
		"386":   {"fec4c2bd23c15cb28483501bc4a3883630fd12d38134f1fa51d290348dda655b", "dbb71cb3d1c42e258e5c3646b778374b38221811af675fcc0e280924ad9ed5f3"},
	}
	digests, ok := pinned[runtime.GOARCH]
	if !ok {
		t.Skipf("no digests pinned for %s", runtime.GOARCH)
	}
	s, vecs := curateShapeVecs(2000, 53)
	scales := feature.FitScales(s, vecs)
	for k, tc := range []struct {
		name  string
		cfg   GraphConfig
		edges int
	}{
		{"blocked", GraphConfig{K: 10, Seed: 3, Workers: 2, BlockFeatures: []string{"topic", "topic_coarse"}, MaxCandidates: 200}, 15104},
		{"lsh", GraphConfig{K: 10, Seed: 3, Workers: 2, LSH: LSHConfig{Enable: true}, MaxCandidates: 200}, 11570},
	} {
		g, err := BuildGraph(context.Background(), tc.cfg, vecs, scales)
		if err != nil {
			t.Fatal(err)
		}
		if got := adjacencyDigest(g); g.NumEdges() != tc.edges || got != digests[k] {
			t.Errorf("%s: %d edges, digest %s; pinned %d, %s", tc.name, g.NumEdges(), got, tc.edges, digests[k])
		}
	}
}

// FuzzBuilderDeltaMatchesOneShot: a build fed in chunks (sizes alternating
// between two fuzzed values) equals the one-shot build, for either key kind
// and a small candidate cap, so sampling is exercised.
func FuzzBuilderDeltaMatchesOneShot(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(7), false, uint8(5))
	f.Add(int64(2), uint8(64), uint8(3), true, uint8(2))
	f.Add(int64(3), uint8(130), uint8(0), false, uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, chunkA, chunkB uint8, lsh bool, maxCandidates uint8) {
		_, vecs := blockCorpus(130, seed)
		scales := feature.Scales{"score": 1}
		cfg := GraphConfig{K: 4, Seed: seed, Workers: 2, MaxCandidates: 1 + int(maxCandidates%32)}
		if lsh {
			cfg.LSH.Enable = true
		} else {
			cfg.BlockFeatures = []string{"tags", "topic"}
		}
		want, err := BuildGraph(context.Background(), cfg, vecs, scales)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(vecs[0].Schema(), cfg, scales)
		if err != nil {
			t.Fatal(err)
		}
		chunks := []int{1 + int(chunkA)%64, 1 + int(chunkB)%64}
		for lo, k := 0, 0; lo < len(vecs); k++ {
			hi := min(lo+chunks[k%2], len(vecs))
			if err := b.ApplyDelta(context.Background(), vecs[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if err := graphEqual(want, b.Graph()); err != nil {
			t.Fatalf("chunks %v: %v", chunks, err)
		}
	})
}

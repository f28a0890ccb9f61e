// Package labelprop implements label propagation (Zhu & Ghahramani) over a
// similarity graph induced by the common feature space — the paper's
// mechanism for finding borderline positive and negative examples that
// itemset-mined LFs miss (§4.4), standing in for Google's Expander platform.
//
// Vertices are data points of all modalities; edge weights follow paper
// Algorithm 1 (Jaccard similarity on categorical features, normalized
// distance on numeric features, extended with cosine similarity on
// embeddings, which exist only for the new modality but are exactly the
// "features that are difficult to construct LFs with" the paper feeds the
// graph). Labels of old-modality points propagate along edges until
// convergence; the converged score becomes a threshold LF and a nonservable
// feature.
package labelprop

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"crossmodal/internal/feature"
	"crossmodal/internal/trace"
)

// GraphConfig controls kNN graph construction.
type GraphConfig struct {
	// K is the number of neighbors kept per vertex (default 10).
	K int
	// BlockFeatures names the categorical features used to block candidate
	// generation: only pairs sharing at least one category on a blocking
	// feature are scored, which keeps construction far below O(n²). Each
	// name must be a categorical feature of the builder's schema, and at
	// least one is required unless LSH is enabled (which blocks on band keys
	// instead and ignores them).
	BlockFeatures []string
	// MaxCandidates caps the number of scored candidates per vertex
	// (default 300); candidates beyond the cap are sampled deterministically
	// from Seed.
	MaxCandidates int
	// MinWeight drops edges with weight below it (default 0.05).
	MinWeight float64
	// Weights are optional per-feature importance multipliers for edge
	// similarity (see FitFeatureWeights); nil means uniform.
	Weights feature.Weights
	// Seed drives candidate sampling.
	Seed int64
	// Workers parallelizes per-vertex neighbor search. The graph is
	// identical for every worker count (asserted by tests): per-vertex
	// work depends only on the vertex index and Seed.
	Workers int
	// LSH enables MinHash-LSH approximate candidate generation (see
	// LSHConfig): a vertex's block keys are its signature band keys instead
	// of its categories on BlockFeatures; candidates are scored with the
	// same kernel. The zero value is disabled.
	LSH LSHConfig
}

func (c GraphConfig) withDefaults() GraphConfig {
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 300
	}
	if c.MinWeight <= 0 {
		c.MinWeight = 0.05
	}
	return c
}

// Edge is one weighted neighbor link.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a symmetric weighted kNN graph over data points, held in two
// flat edge slabs. The directed per-vertex selections are retained alongside
// the symmetrized adjacency so a Builder flush re-selects only the vertices
// its deltas touched and keeps every other selection.
type Graph struct {
	// Vertex i's directed selection, best first, is dir[i*k : i*k+dirLen[i]]:
	// a fixed stride of K slots per vertex, so a flush rewrites the dirty
	// vertices in place and appends the new ones.
	k      int
	dir    []Edge
	dirLen []int32
	// Vertex i's adjacency, ascending by neighbor, is adj[adjOff[i]:adjOff[i+1]].
	adjOff []int
	adj    []Edge
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.dirLen) }

// Neighbors returns vertex i's adjacency list (shared slice; do not modify).
func (g *Graph) Neighbors(i int) []Edge { return g.adj[g.adjOff[i]:g.adjOff[i+1]] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// directed returns vertex i's directed selection, nil when it selected nothing.
func (g *Graph) directed(i int) []Edge {
	if g.dirLen[i] == 0 {
		return nil
	}
	return g.dir[i*g.k : i*g.k+int(g.dirLen[i])]
}

// dedupeSet is a reusable membership set over vertex indexes: one bit per
// vertex, and the members in insertion order. reset clears only the members'
// bits, so one n/8-byte allocation serves every union a worker builds.
type dedupeSet struct {
	bits []uint64
	buf  []int32 // members in insertion order
}

func newDedupeSet(n int) dedupeSet { return dedupeSet{bits: make([]uint64, (n+63)/64)} }

func (s *dedupeSet) reset() {
	for _, j := range s.buf {
		s.bits[j>>6] &^= 1 << (j & 63)
	}
	s.buf = s.buf[:0]
}

func (s *dedupeSet) add(j int32) bool {
	w, bit := j>>6, uint64(1)<<(j&63)
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	s.buf = append(s.buf, j)
	return true
}

// BuildGraph constructs the similarity graph over vecs. All vectors must
// share one schema. Scales should be fitted on the same corpus
// (feature.FitScales) so numeric similarities are calibrated. It is one
// Builder delta over the whole corpus; chunked construction through
// Builder.ApplyDelta and one Flush yields a bit-identical graph.
func BuildGraph(ctx context.Context, cfg GraphConfig, vecs []*feature.Vector, scales feature.Scales) (*Graph, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("labelprop: no vertices")
	}
	ctx, span := trace.Start(ctx, "labelprop.build_graph")
	defer span.End()
	span.SetInt("vertices", int64(n))
	b, err := NewBuilder(vecs[0].Schema(), cfg, scales)
	if err != nil {
		return nil, err
	}
	if err := b.ApplyDelta(ctx, vecs); err != nil {
		return nil, err
	}
	if err := b.Flush(ctx); err != nil {
		return nil, err
	}
	g := b.g
	span.SetInt("edges", int64(g.NumEdges()))
	return g, nil
}

// symmetrize rebuilds the adjacency from the directed selections, keeping an
// edge if either endpoint selected it. Each vertex's list is the merge of
// its own selections with the mirrored selections of its in-neighbors,
// deduplicated after a per-vertex sort — no global pair-keyed map.
// Similarity is symmetric, so when both directions selected an edge the
// duplicate entries carry equal weights and collapsing keeps either.
// Rebuilding is O(edges) — independent of how few vertices the flush
// re-selected — which keeps the incremental path exactly equivalent to a
// full build; the savings live in not re-scoring unaffected vertices'
// candidates, which is where construction time actually goes.
func (g *Graph) symmetrize() {
	n := g.NumVertices()
	off := make([]int, n+1) // counts at i+1, then starts, then (after the fill) ends
	for i := 0; i < n; i++ {
		es := g.directed(i)
		off[i+1] += len(es)
		for _, e := range es {
			off[e.To+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]Edge, off[n])
	for i := 0; i < n; i++ {
		for _, e := range g.directed(i) {
			adj[off[i]] = e
			off[i]++
			adj[off[e.To]] = Edge{To: i, Weight: e.Weight}
			off[e.To]++
		}
	}
	// Sort each list, collapse double-selected edges (equal To ⇒ equal
	// weight) and close the gaps they leave: w trails the read position.
	lo, w := 0, 0
	for i := 0; i < n; i++ {
		es := adj[lo:off[i]]
		lo, off[i] = off[i], w
		slices.SortFunc(es, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		for _, e := range es {
			if w > off[i] && adj[w-1].To == e.To {
				continue
			}
			adj[w] = e
			w++
		}
	}
	off[n] = w
	g.adjOff, g.adj = off, adj[:w]
}

// blockSlots resolves the blocking feature names to schema positions, in
// cfg order. A name the schema lacks, or one that is not categorical, would
// block nothing and leave the graph silently edgeless, so it is an error.
func blockSlots(schema *feature.Schema, feats []string) ([]int, error) {
	if len(feats) == 0 {
		return nil, fmt.Errorf("labelprop: no BlockFeatures (and LSH is off)")
	}
	slots := make([]int, len(feats))
	for pos, f := range feats {
		i, ok := schema.Index(f)
		if !ok {
			return nil, fmt.Errorf("labelprop: block feature %q is not in the schema", f)
		}
		if kind := schema.Def(i).Kind; kind != feature.Categorical {
			return nil, fmt.Errorf("labelprop: block feature %q is %v, not categorical", f, kind)
		}
		slots[pos] = i
	}
	return slots, nil
}

// blockKeys appends row r's block-table keys to dst: for each blocking
// feature slot, in cfg order, one key per category in the order the value
// lists them (the feature's cfg position in the high word, the category's
// intern ID in the low). Candidate enumeration walks keys in this order, so
// it must not follow the sorted ID set instead. ids is CatIDs scratch.
func blockKeys(c feature.Columns, r int, slots []int, ids *[]uint32, dst []uint64) []uint64 {
	for pos, i := range slots {
		*ids = c.CatIDs(i, r, (*ids)[:0])
		for _, id := range *ids {
			dst = append(dst, uint64(pos)<<32|uint64(id))
		}
	}
	return dst
}

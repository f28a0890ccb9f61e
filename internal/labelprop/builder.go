package labelprop

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// GraphDelta is one batch of graph changes produced by Builder.ApplyDelta:
// directed adjacency for appended vertices plus recomputed directed
// adjacency for the existing vertices whose candidate sets the new
// vertices changed.
type GraphDelta struct {
	// Appended holds the directed edge selections of the new vertices, in
	// ascending vertex order starting at the graph's previous vertex count.
	Appended [][]Edge
	// Updated maps an existing vertex to its recomputed directed edge
	// selection.
	Updated map[int][]Edge
}

// ApplyDelta folds one delta into the graph: appended vertices extend the
// directed selection lists, updated vertices replace theirs, and the
// symmetric adjacency is rebuilt from the directed lists. Rebuilding is
// O(edges) — independent of how small the delta is — which keeps the
// incremental path simple and exactly equivalent to a full build; the
// savings live in not re-scoring unaffected vertices' candidates, which is
// where construction time actually goes.
func (g *Graph) ApplyDelta(d *GraphDelta) {
	g.directed = append(g.directed, d.Appended...)
	for i, es := range d.Updated {
		g.directed[i] = es
	}
	g.adj = symmetrize(g.directed)
}

type builderMode int

const (
	modeAllPairs builderMode = iota
	modeBlocked
	modeLSH
)

// Builder constructs a similarity graph incrementally. Feeding the whole
// corpus through one ApplyDelta is exactly BuildGraph (which is now
// implemented this way); feeding it in chunks produces a bit-identical
// graph, because every per-vertex decision — candidate enumeration order,
// sampling RNG, edge scoring, top-K truncation — depends only on (Seed,
// vertex index, final candidate index state), and the candidate indexes
// (block table or LSH buckets) grow append-only in vertex order.
//
// The streaming pipeline uses this to fold each spilled chunk's graph
// window into the propagation graph without rebuilding from scratch.
type Builder struct {
	cfg GraphConfig
	// arena is the vertex store: every applied vector lives here in packed
	// form and pairs are scored by vertex index, so the builder keeps no
	// reference to the caller's vectors.
	arena *feature.Arena
	g     *Graph
	mode  builderMode

	// blocked-mode state: block key (blocking-feature slot << 32 | category
	// intern ID) → vertices, plus per-vertex keys.
	blockIndex map[uint64][]int
	vertexKeys [][]uint64

	// LSH-mode state: the salt set (fixed by Seed, independent of corpus
	// size — what makes the index appendable) and the growing bucket index.
	hasher *lshHasher
	lsh    *lshIndex
}

// NewBuilder prepares an incremental builder for vectors of the given
// schema. Scales (and cfg.Weights) are fixed for the builder's lifetime;
// fit them over the full corpus first (feature.ScalesAccum) so chunked and
// whole-corpus builds see the same kernel.
func NewBuilder(schema *feature.Schema, cfg GraphConfig, scales feature.Scales) (*Builder, error) {
	cfg = cfg.withDefaults()
	b := &Builder{
		cfg:   cfg,
		arena: feature.NewSimKernel(schema, scales, cfg.Weights).NewArena(),
		g:     &Graph{},
	}
	switch {
	case cfg.LSH.Enable && !cfg.Exact:
		h, err := newLSHHasher(schema, cfg)
		if err != nil {
			return nil, err
		}
		b.mode = modeLSH
		b.hasher = h
		b.lsh = &lshIndex{bands: h.bands, rows: h.rows, buckets: make(map[uint64][]int)}
	case len(cfg.BlockFeatures) == 0:
		b.mode = modeAllPairs
	default:
		b.mode = modeBlocked
		b.blockIndex = make(map[uint64][]int)
	}
	return b, nil
}

// NumVertices returns the number of vertices applied so far.
func (b *Builder) NumVertices() int { return b.arena.Len() }

// Graph returns the graph over all applied vertices. The same *Graph is
// updated in place by subsequent deltas.
func (b *Builder) Graph() *Graph { return b.g }

// ApplyDelta appends newVecs as vertices and updates the graph: candidate
// indexes grow in place, then directed edges are recomputed for the new
// vertices and for every existing vertex whose candidate set changed
// (all-pairs mode: all of them; blocked/LSH modes: only vertices sharing a
// block key or signature bucket with a new vertex).
func (b *Builder) ApplyDelta(ctx context.Context, newVecs []*feature.Vector) error {
	if len(newVecs) == 0 {
		return nil
	}
	ctx, span := trace.Start(ctx, "labelprop.apply_delta")
	defer span.End()
	base := b.arena.Len()
	for _, v := range newVecs {
		b.arena.Append(v)
	}
	n := b.arena.Len()

	var affected []int
	switch b.mode {
	case modeAllPairs:
		affected = make([]int, base)
		for i := range affected {
			affected[i] = i
		}
	case modeBlocked:
		mark := make([]bool, base)
		for k, v := range newVecs {
			keys := blockKeys(v, b.cfg.BlockFeatures)
			b.vertexKeys = append(b.vertexKeys, keys)
			for _, key := range keys {
				for _, j := range b.blockIndex[key] {
					if j < base && !mark[j] {
						mark[j] = true
						affected = append(affected, j)
					}
				}
				b.blockIndex[key] = append(b.blockIndex[key], base+k)
			}
		}
	case modeLSH:
		bands := b.lsh.bands
		// Sign the new vertices in parallel (disjoint writes keep the
		// result worker-invariant), then grow the bucket table serially in
		// vertex order — the same order a from-scratch index build uses,
		// so bucket contents (and hence candidate enumeration) match a
		// full rebuild exactly.
		keys := make([][]uint64, len(newVecs))
		ids := make([]int, len(newVecs))
		for i := range ids {
			ids[i] = i
		}
		if _, err := mapreduce.Map(ctx, mapreduce.Config{Workers: b.cfg.Workers}, ids, func(k int) (struct{}, error) {
			keys[k] = b.hasher.sign(newVecs[k])
			return struct{}{}, nil
		}); err != nil {
			return err
		}
		b.lsh.keys = append(b.lsh.keys, make([]uint64, len(newVecs)*bands)...)
		b.lsh.indexed = append(b.lsh.indexed, make([]bool, len(newVecs))...)
		mark := make([]bool, base)
		for k := range newVecs {
			if keys[k] == nil {
				continue
			}
			i := base + k
			b.lsh.indexed[i] = true
			copy(b.lsh.keys[i*bands:], keys[k])
			for _, key := range keys[k] {
				for _, j := range b.lsh.buckets[key] {
					if j < base && !mark[j] {
						mark[j] = true
						affected = append(affected, j)
					}
				}
				b.lsh.buckets[key] = append(b.lsh.buckets[key], i)
			}
		}
	}
	sort.Ints(affected)

	recompute := make([]int, 0, len(affected)+len(newVecs))
	recompute = append(recompute, affected...)
	for i := base; i < n; i++ {
		recompute = append(recompute, i)
	}

	candidates := b.candidateFunc()
	scratch := sync.Pool{New: func() any {
		return &vertexScratch{seen: dedupeSet{stamp: make([]int32, n)}}
	}}
	k, minWeight := b.cfg.K, b.cfg.MinWeight
	edges, err := mapreduce.Map(ctx, mapreduce.Config{Workers: b.cfg.Workers}, recompute, func(i int) ([]Edge, error) {
		sc := scratch.Get().(*vertexScratch)
		defer scratch.Put(sc)
		rng := xrand.New(b.cfg.Seed ^ int64(i)*0x9e3779b9)
		// top is a heap of the best <= K edges so far with the worst at the
		// root. Once it is full, the root's weight is the floor a candidate
		// must reach, which lets the kernel abandon hopeless pairs early.
		top := sc.top[:0]
		for _, j := range candidates(i, rng, &sc.seen) {
			floor := minWeight
			if len(top) == k {
				floor = top[0].Weight
			}
			w, ok := b.arena.Weighted(i, j, floor)
			if !ok || !(w >= minWeight) { // written so a NaN weight is dropped too
				continue
			}
			e := Edge{To: j, Weight: w}
			switch {
			case len(top) < k:
				top = append(top, e)
				siftUp(top, len(top)-1)
			case rankEdges(e, top[0]) < 0:
				top[0] = e
				siftDown(top, 0)
			}
		}
		sc.top = top
		if len(top) == 0 {
			return nil, nil
		}
		es := slices.Clone(top)
		slices.SortFunc(es, rankEdges)
		return es, nil
	})
	if err != nil {
		return err
	}

	delta := &GraphDelta{
		Appended: make([][]Edge, n-base),
		Updated:  make(map[int][]Edge, len(affected)),
	}
	for idx, i := range recompute {
		if i >= base {
			delta.Appended[i-base] = edges[idx]
		} else {
			delta.Updated[i] = edges[idx]
		}
	}
	b.g.ApplyDelta(delta)
	span.SetInt("added", int64(len(newVecs)))
	span.SetInt("updated", int64(len(affected)))
	span.SetInt("vertices", int64(n))
	return nil
}

// candidateFunc returns the per-vertex candidate generator for the
// builder's current index state. The closures read the live indexes, so
// one call per ApplyDelta suffices.
func (b *Builder) candidateFunc() func(i int, rng *rand.Rand, seen *dedupeSet) []int {
	switch b.mode {
	case modeLSH:
		return b.lsh.candidatesFor(b.cfg.MaxCandidates)
	case modeAllPairs:
		n := b.arena.Len()
		return func(i int, _ *rand.Rand, seen *dedupeSet) []int {
			out := seen.buf[:0]
			for j := 0; j < n; j++ {
				if j != i {
					out = append(out, j)
				}
			}
			seen.buf = out
			return out
		}
	default:
		return func(i int, rng *rand.Rand, seen *dedupeSet) []int {
			seen.reset()
			for _, key := range b.vertexKeys[i] {
				for _, j := range b.blockIndex[key] {
					if j != i {
						seen.add(j)
					}
				}
			}
			out := seen.buf
			if len(out) > b.cfg.MaxCandidates {
				rng.Shuffle(len(out), func(a, c int) { out[a], out[c] = out[c], out[a] })
				out = out[:b.cfg.MaxCandidates]
				sort.Ints(out)
			}
			return out
		}
	}
}

// vertexScratch is one worker's reusable per-vertex state.
type vertexScratch struct {
	seen dedupeSet
	top  []Edge
}

// rankEdges is the selection order of a vertex's directed edges: weight
// descending, then neighbor index ascending. Neighbor indexes are distinct
// within one vertex's candidates, so the order is total.
func rankEdges(a, b Edge) int {
	if a.Weight != b.Weight {
		return cmp.Compare(b.Weight, a.Weight)
	}
	return cmp.Compare(a.To, b.To)
}

// siftUp and siftDown maintain h as a binary heap whose root is the edge
// ranked last by rankEdges.
func siftUp(h []Edge, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if rankEdges(h[i], h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Edge, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if rankEdges(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// lshInfo exposes the derived banding for BuildGraph's trace span.
func (b *Builder) lshInfo() (bands, rows int, ok bool) {
	if b.mode != modeLSH {
		return 0, 0, false
	}
	return b.lsh.bands, b.lsh.rows, true
}

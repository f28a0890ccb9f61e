package labelprop

import (
	"cmp"
	"context"
	"encoding/binary"
	"slices"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

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
	// intern ID) → vertices, and the vertices grouped by their ordered
	// block-key list. Vertices of one group enumerate the same block union,
	// so a delta builds it once per group, not once per vertex.
	blockIndex map[uint64][]int32
	groupOf    []int32          // vertex → group
	groupKeys  [][]uint64       // group → its ordered block keys
	groupIDs   map[string]int32 // a key list's bytes → group

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
		g:     &Graph{k: cfg.K},
	}
	switch {
	case cfg.LSH.Enable && !cfg.Exact:
		h, err := newLSHHasher(schema, cfg)
		if err != nil {
			return nil, err
		}
		b.mode = modeLSH
		b.hasher = h
		b.lsh = &lshIndex{bands: h.bands, rows: h.rows, buckets: make(map[uint64][]int32)}
	case len(cfg.BlockFeatures) == 0:
		b.mode = modeAllPairs
	default:
		b.mode = modeBlocked
		b.blockIndex = make(map[uint64][]int32)
		b.groupIDs = make(map[string]int32)
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
	b.arena.Append(newVecs...)
	n := b.arena.Len()

	// recompute collects the existing vertices whose candidate set the new
	// vertices changed, then the new vertices themselves.
	var recompute []int
	switch b.mode {
	case modeAllPairs:
		recompute = make([]int, base, n)
		for i := range recompute {
			recompute[i] = i
		}
	case modeBlocked:
		mark := make([]bool, base)
		var listKey []byte
		for k, v := range newVecs {
			keys := blockKeys(v, b.cfg.BlockFeatures)
			listKey = listKey[:0]
			for _, key := range keys {
				listKey = binary.LittleEndian.AppendUint64(listKey, key)
				for _, j := range b.blockIndex[key] {
					if int(j) < base && !mark[j] {
						mark[j] = true
						recompute = append(recompute, int(j))
					}
				}
				b.blockIndex[key] = append(b.blockIndex[key], int32(base+k))
			}
			g, ok := b.groupIDs[string(listKey)]
			if !ok {
				g = int32(len(b.groupKeys))
				b.groupIDs[string(listKey)] = g
				b.groupKeys = append(b.groupKeys, keys)
			}
			b.groupOf = append(b.groupOf, g)
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
					if int(j) < base && !mark[j] {
						mark[j] = true
						recompute = append(recompute, int(j))
					}
				}
				b.lsh.buckets[key] = append(b.lsh.buckets[key], int32(i))
			}
		}
	}
	updated := len(recompute)
	for i := base; i < n; i++ {
		recompute = append(recompute, i)
	}
	if groupOf := b.groupOf; groupOf != nil {
		// Vertices of one group sit together, so the worker that claims a run
		// of them builds their shared block union once (see blockCandidates).
		slices.SortFunc(recompute, func(x, y int) int {
			return cmp.Or(cmp.Compare(groupOf[x], groupOf[y]), cmp.Compare(x, y))
		})
	} else {
		slices.Sort(recompute)
	}

	g := b.g
	g.dir = append(g.dir, make([]Edge, (n-base)*g.k)...)
	g.dirLen = append(g.dirLen, make([]int32, n-base)...)
	candidates := b.candidateFunc()
	scratch := sync.Pool{New: func() any { return newVertexScratch(n) }}
	k, minWeight := b.cfg.K, b.cfg.MinWeight
	_, err := mapreduce.Map(ctx, mapreduce.Config{Workers: b.cfg.Workers}, recompute, func(i int) (struct{}, error) {
		sc := scratch.Get().(*vertexScratch)
		defer scratch.Put(sc)
		// top is a heap of the best <= K edges so far with the worst at the
		// root, kept in the vertex's own slot of the directed slab. Once it is
		// full, the root's weight is the floor a candidate must reach, which
		// lets the kernel abandon hopeless pairs early.
		top := g.dir[i*k : i*k : (i+1)*k]
		for _, c := range candidates(i, sc) {
			j := int(c)
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
		slices.SortFunc(top, rankEdges)
		g.dirLen[i] = int32(len(top))
		return struct{}{}, nil
	})
	if err != nil {
		return err
	}
	g.symmetrize()
	span.SetInt("added", int64(len(newVecs)))
	span.SetInt("updated", int64(updated))
	span.SetInt("vertices", int64(n))
	return nil
}

// candidateFunc returns the per-vertex candidate generator for the
// builder's current index state. The closures read the live indexes, so
// one call per ApplyDelta suffices.
func (b *Builder) candidateFunc() func(i int, sc *vertexScratch) []int32 {
	switch b.mode {
	case modeLSH:
		return b.sampled(b.lsh.candidates)
	case modeBlocked:
		return b.sampled(b.blockCandidates)
	}
	n := b.arena.Len()
	return func(i int, sc *vertexScratch) []int32 {
		out := sc.cand[:0]
		for j := 0; j < n; j++ {
			if j != i {
				out = append(out, int32(j))
			}
		}
		sc.cand = out
		return out
	}
}

// sampled caps an enumeration at MaxCandidates: a longer list is cut to a
// sorted sample drawn from the vertex's own stream (Seed, vertex index).
// Recorded outputs depend on which candidates that is, so the sampler must
// stay draw-for-draw rand.New(src).Shuffle (see xrand.ShuffleInts).
func (b *Builder) sampled(enumerate func(i int, sc *vertexScratch) []int32) func(i int, sc *vertexScratch) []int32 {
	return func(i int, sc *vertexScratch) []int32 {
		out := enumerate(i, sc)
		if len(out) > b.cfg.MaxCandidates {
			var src xrand.Source
			src.Seed(b.cfg.Seed ^ int64(i)*0x9e3779b9)
			src.ShuffleInts(out)
			out = out[:b.cfg.MaxCandidates]
			slices.Sort(out)
		}
		return out
	}
}

// blockCandidates enumerates the vertices sharing a block key with i: i's
// blocks in key order, each in vertex order, first occurrence kept, i
// itself dropped. Everything but the last step depends only on i's group,
// so the deduplicated union stays in the worker's scratch until the worker
// reaches a vertex of another group.
func (b *Builder) blockCandidates(i int, sc *vertexScratch) []int32 {
	if g := b.groupOf[i]; g != sc.group {
		sc.group = g
		sc.seen.reset()
		for _, key := range b.groupKeys[g] {
			for _, j := range b.blockIndex[key] {
				sc.seen.add(j)
			}
		}
	}
	out := sc.cand[:0]
	for _, j := range sc.seen.buf {
		if j != int32(i) {
			out = append(out, j)
		}
	}
	sc.cand = out
	return out
}

// vertexScratch is one worker's reusable candidate state, valid for one
// ApplyDelta: the stamp set, the group whose block union seen.buf holds
// (-1: none) and the buffer a vertex's own candidate list is cut in.
type vertexScratch struct {
	seen  dedupeSet
	group int32
	cand  []int32
}

func newVertexScratch(n int) *vertexScratch {
	return &vertexScratch{seen: dedupeSet{stamp: make([]int32, n)}, group: -1}
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

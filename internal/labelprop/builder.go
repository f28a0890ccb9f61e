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

// Builder constructs a similarity graph incrementally. Feeding the whole
// corpus through one ApplyDelta is exactly BuildGraph (which is implemented
// this way); feeding it in chunks produces a bit-identical graph, because
// every per-vertex decision — candidate enumeration order, sampling RNG,
// edge scoring, top-K truncation — depends only on (Seed, vertex index,
// final block index state), and the block index grows append-only in
// vertex order.
//
// There is one candidate path: a vertex's candidates are the vertices
// sharing one of its block keys. Only the key function varies, chosen once
// by NewBuilder: the vertex's categories on the blocking features, or its
// MinHash-LSH band keys (GraphConfig.LSH).
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
	keys  func(v *feature.Vector) []uint64

	// The block index: block key → vertices, and the vertices grouped by
	// their ordered key list. Vertices of one group enumerate the same block
	// union, so a delta builds it once per group, not once per vertex.
	blockIndex map[uint64][]int32
	groupOf    []int32          // vertex → group
	groupKeys  [][]uint64       // group → its ordered block keys
	groupIDs   map[string]int32 // a key list's bytes → group
}

// NewBuilder prepares an incremental builder for vectors of the given
// schema. Scales (and cfg.Weights) are fixed for the builder's lifetime;
// fit them over the full corpus first (feature.ScalesAccum) so chunked and
// whole-corpus builds see the same kernel.
func NewBuilder(schema *feature.Schema, cfg GraphConfig, scales feature.Scales) (*Builder, error) {
	cfg = cfg.withDefaults()
	b := &Builder{
		cfg:        cfg,
		arena:      feature.NewSimKernel(schema, scales, cfg.Weights).NewArena(),
		g:          &Graph{k: cfg.K},
		blockIndex: make(map[uint64][]int32),
		groupIDs:   make(map[string]int32),
	}
	if cfg.LSH.Enable {
		h, err := newLSHHasher(schema, cfg)
		if err != nil {
			return nil, err
		}
		b.keys = h.sign
		return b, nil
	}
	slots, err := blockSlots(schema, cfg.BlockFeatures)
	if err != nil {
		return nil, err
	}
	b.keys = func(v *feature.Vector) []uint64 { return blockKeys(v, slots) }
	return b, nil
}

// NumVertices returns the number of vertices applied so far.
func (b *Builder) NumVertices() int { return b.arena.Len() }

// Graph returns the graph over all applied vertices. The same *Graph is
// updated in place by subsequent deltas.
func (b *Builder) Graph() *Graph { return b.g }

// ApplyDelta appends newVecs as vertices and updates the graph: each new
// vertex joins its blocks, then directed edges are recomputed for the new
// vertices and for every existing vertex sharing a block key with one.
func (b *Builder) ApplyDelta(ctx context.Context, newVecs []*feature.Vector) error {
	if len(newVecs) == 0 {
		return nil
	}
	ctx, span := trace.Start(ctx, "labelprop.apply_delta")
	defer span.End()
	base := b.arena.Len()
	b.arena.Append(newVecs...)
	n := b.arena.Len()

	// Grow the block index serially in vertex order — the order a one-shot
	// build uses, so block contents (and hence candidate enumeration) match
	// it exactly. recompute collects the existing vertices whose candidate
	// set the new vertices changed, then the new vertices themselves.
	var recompute []int
	mark := make([]bool, base)
	var listKey []byte
	for k, v := range newVecs {
		keys := b.keys(v)
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
	updated := len(recompute)
	for i := base; i < n; i++ {
		recompute = append(recompute, i)
	}
	// Vertices of one group sit together, so the worker that claims a run of
	// them builds their shared block union once (see blockCandidates).
	groupOf := b.groupOf
	slices.SortFunc(recompute, func(x, y int) int {
		return cmp.Or(cmp.Compare(groupOf[x], groupOf[y]), cmp.Compare(x, y))
	})

	g := b.g
	g.dir = append(g.dir, make([]Edge, (n-base)*g.k)...)
	g.dirLen = append(g.dirLen, make([]int32, n-base)...)
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
		for _, c := range b.candidates(i, sc) {
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

// candidates returns vertex i's block candidates capped at MaxCandidates: a
// longer list is cut to a sorted sample drawn from the vertex's own stream
// (Seed, vertex index). Recorded outputs depend on which candidates that is,
// so the sampler must stay draw-for-draw rand.New(src).Shuffle (see
// xrand.ShuffleInts).
func (b *Builder) candidates(i int, sc *vertexScratch) []int32 {
	out := b.blockCandidates(i, sc)
	if len(out) > b.cfg.MaxCandidates {
		var src xrand.Source
		src.Seed(b.cfg.Seed ^ int64(i)*0x9e3779b9)
		src.ShuffleInts(out)
		out = out[:b.cfg.MaxCandidates]
		slices.Sort(out)
	}
	return out
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

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

// tileLen caps how many vertices of one group are selected together: a
// tile's slot index fits a byte, and its candidate pairs number at most
// tileLen × MaxCandidates.
const tileLen = 128

// Builder constructs a similarity graph incrementally. Feeding the whole
// corpus through one ApplyDelta is exactly BuildGraph (which is implemented
// this way); feeding it in chunks produces a bit-identical graph, because
// every per-vertex decision — candidate enumeration order, sampling RNG,
// edge scoring, top-K truncation — depends only on (Seed, vertex index,
// final block index state), and the block index grows append-only in
// vertex order.
//
// Selection is deferred: ApplyDelta only grows the vertex store and the
// index, and Flush (or Graph) selects every vertex the deltas since the last
// flush made dirty, once, over the index as it then stands.
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
	// union, so a flush builds it once per tile, not once per vertex. Blocks
	// grow in vertex order, so each is ascending.
	blockIndex map[uint64][]int32
	groupOf    []int32          // vertex → group
	groupKeys  [][]uint64       // group → its ordered block keys
	groupIDs   map[string]int32 // a key list's bytes → group

	// flushed is the vertex count at the last Flush: a vertex below it keeps
	// its selection unless its group is dirty (see dirtyTiles).
	flushed int
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

// Graph flushes any pending deltas and returns the graph over all applied
// vertices. The same *Graph is updated in place by later flushes.
func (b *Builder) Graph() *Graph {
	// Flush fails only when its context ends, and this one never does.
	_ = b.Flush(context.Background())
	return b.g
}

// ApplyDelta appends newVecs as vertices: each joins the arena, its blocks
// and its key-list group. No vertex is selected until the next Flush.
func (b *Builder) ApplyDelta(ctx context.Context, newVecs []*feature.Vector) error {
	if len(newVecs) == 0 {
		return nil
	}
	_, span := trace.Start(ctx, "labelprop.apply_delta")
	defer span.End()
	base := b.arena.Len()
	b.arena.Append(newVecs...)
	// Grow the block index serially in vertex order — the order a one-shot
	// build uses, so block contents (and hence candidate enumeration) match
	// it exactly.
	var listKey []byte
	for k, v := range newVecs {
		i := int32(base + k)
		keys := b.keys(v)
		listKey = listKey[:0]
		for _, key := range keys {
			listKey = binary.LittleEndian.AppendUint64(listKey, key)
			b.blockIndex[key] = append(b.blockIndex[key], i)
		}
		g, ok := b.groupIDs[string(listKey)]
		if !ok {
			g = int32(len(b.groupKeys))
			b.groupIDs[string(listKey)] = g
			b.groupKeys = append(b.groupKeys, keys)
		}
		b.groupOf = append(b.groupOf, g)
	}
	span.SetInt("added", int64(len(newVecs)))
	span.SetInt("vertices", int64(b.arena.Len()))
	return nil
}

// Flush selects every dirty vertex once, over the index as it stands, then
// rebuilds the symmetric adjacency. A vertex is dirty when it is new since
// the last Flush or shares a block key with one: only then can its block
// union, and so its selection, have changed. The span counts the vertices
// selected and the candidate pairs scored.
func (b *Builder) Flush(ctx context.Context) error {
	n := b.arena.Len()
	if n == b.flushed {
		return nil
	}
	ctx, span := trace.Start(ctx, "labelprop.flush")
	defer span.End()
	g := b.g
	// Extended to n vertices, so a Flush retried after a canceled one grows
	// nothing twice.
	g.dir = extend(g.dir, n*g.k)
	g.dirLen = extend(g.dirLen, n)

	tiles, selected := b.dirtyTiles()
	scratch := sync.Pool{New: func() any { return b.newTileScratch() }}
	pairs, err := mapreduce.Map(ctx, mapreduce.Config{Workers: b.cfg.Workers}, tiles, func(t []int32) (int, error) {
		sc := scratch.Get().(*tileScratch)
		defer scratch.Put(sc)
		b.sampleTile(t, sc)
		return b.scoreTile(t, sc), nil
	})
	if err != nil {
		return err
	}
	g.symmetrize()
	b.flushed = n
	total := 0
	for _, p := range pairs {
		total += p
	}
	span.Add("selected", int64(selected))
	span.Add("pairs", int64(total))
	span.SetInt("vertices", int64(n))
	return nil
}

// extend returns s lengthened to n. When it must reallocate it at least
// doubles the capacity, so flushing after every delta reallocates O(log n)
// times.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*cap(s))-len(s))
	}
	return s[:n]
}

// dirtyTiles returns the dirty vertices cut into tiles — runs of at most
// tileLen vertices of one group, selected together — and their count. A
// group is dirty when it gained a vertex, or one of its blocks did, since the
// last Flush; blocks grow in vertex order, so a block's last entry tells.
// The vertices are counting-sorted by group, ascending within a group, so
// the worker that claims a run of one group's tiles builds their shared
// block union once.
func (b *Builder) dirtyTiles() ([][]int32, int) {
	dirty := make([]bool, len(b.groupKeys))
	for _, gr := range b.groupOf[b.flushed:] {
		dirty[gr] = true
	}
	for gr, keys := range b.groupKeys {
		for k := 0; k < len(keys) && !dirty[gr]; k++ {
			blk := b.blockIndex[keys[k]]
			dirty[gr] = int(blk[len(blk)-1]) >= b.flushed
		}
	}
	at := make([]int32, len(dirty)+1)
	for _, gr := range b.groupOf {
		if dirty[gr] {
			at[gr+1]++
		}
	}
	for gr := range dirty {
		at[gr+1] += at[gr]
	}
	order := make([]int32, at[len(dirty)])
	for v, gr := range b.groupOf {
		if dirty[gr] {
			order[at[gr]] = int32(v)
			at[gr]++
		}
	}
	// at[gr] is now the end of group gr's run.
	var tiles [][]int32
	lo := int32(0)
	for _, hi := range at[:len(dirty)] {
		for t := lo; t < hi; t += tileLen {
			tiles = append(tiles, order[t:min(t+tileLen, hi)])
		}
		lo = hi
	}
	return tiles, len(order)
}

// tileScratch is one worker's reusable selection state, valid for one Flush.
type tileScratch struct {
	// seen.buf is the block union of group (-1: none) and seen.buf[:head] its
	// first block, which holds every member of the group, ascending.
	seen  dedupeSet
	group int32
	head  int
	asc   []int32 // 0, 1, 2, …: at least as long as the union
	perm  []int32 // one vertex's union positions, shuffled
	pos   []int32 // each tile slot's union positions, at a fixed stride
	// The tile's candidate pairs bucketed by union position: the tile slots
	// are owner, and position p's bucket ends at at[p].
	at    []int32
	owner []uint8
	sims  []float64 // the kernel's per-feature scratch
}

func (b *Builder) newTileScratch() *tileScratch {
	return &tileScratch{seen: newDedupeSet(b.arena.Len()), group: -1, sims: b.arena.SimScratch()}
}

// union returns group gr's block union: its blocks in key order, each in
// vertex order, first occurrence kept. It stays in the scratch until the
// worker reaches another group.
func (b *Builder) union(gr int32, sc *tileScratch) []int32 {
	if gr != sc.group {
		sc.group, sc.head = gr, 0
		sc.seen.reset()
		for k, key := range b.groupKeys[gr] {
			for _, j := range b.blockIndex[key] {
				sc.seen.add(j)
			}
			if k == 0 {
				sc.head = len(sc.seen.buf)
			}
		}
		if u := len(sc.seen.buf); len(sc.asc) < u {
			sc.asc = make([]int32, max(u, 2*len(sc.asc)))
			for p := range sc.asc {
				sc.asc[p] = int32(p)
			}
		}
	}
	return sc.seen.buf
}

// sample writes vertex i's candidates to dst as positions into its group's
// union (i itself excluded) and returns them. A union with more than
// MaxCandidates other vertices is cut to a sample drawn from the vertex's own
// stream (Seed, vertex index). Recorded outputs depend on which candidates
// that is, so the sample must stay, as a set, draw-for-draw
// rand.New(src).Shuffle's over the union in order (xrand.ShuffleInts);
// shuffling positions instead of vertices permutes the same way, and the
// steps ShuffleIntsDownTo skips only reorder the sample. dst needs room for
// min(MaxCandidates, len(union)) positions.
func (b *Builder) sample(i int, sc *tileScratch, dst []int32) []int32 {
	union := b.union(b.groupOf[i], sc)
	// A vertex is in its first block; a key-less one has an empty union.
	own, _ := slices.BinarySearch(union[:sc.head], int32(i))
	m := b.cfg.MaxCandidates
	if len(union)-1 <= m {
		return positionsExcept(dst[:0], sc.asc[:len(union)], own)
	}
	sc.perm = positionsExcept(sc.perm[:0], sc.asc[:len(union)], own)
	var src xrand.Source
	src.Seed(b.cfg.Seed ^ int64(i)*0x9e3779b9)
	src.ShuffleIntsDownTo(sc.perm, m)
	return append(dst[:0], sc.perm[:m]...)
}

// positionsExcept appends the positions asc = 0..u-1 without own to dst
// (own = 0 of an empty union: a key-less vertex).
func positionsExcept(dst, asc []int32, own int) []int32 {
	return append(append(dst, asc[:own]...), asc[min(own+1, len(asc)):]...)
}

// sampleTile draws every tile vertex's candidates and buckets the tile's
// (slot, position) pairs by position with a counting sort, so scoreTile can
// walk the union once.
func (b *Builder) sampleTile(t []int32, sc *tileScratch) {
	u := len(b.union(b.groupOf[t[0]], sc))
	stride := min(b.cfg.MaxCandidates, u)
	sc.pos = slices.Grow(sc.pos[:0], len(t)*stride)[:len(t)*stride]
	sc.at = slices.Grow(sc.at[:0], u+1)[:u+1]
	clear(sc.at)
	var npos [tileLen]int32
	total := 0
	for s, i := range t {
		ps := b.sample(int(i), sc, sc.pos[s*stride:(s+1)*stride])
		npos[s] = int32(len(ps))
		total += len(ps)
		for _, p := range ps {
			sc.at[p+1]++
		}
	}
	for p := 1; p <= u; p++ {
		sc.at[p] += sc.at[p-1]
	}
	// at[p] is now bucket p's start; filling advances it to the bucket's end.
	sc.owner = slices.Grow(sc.owner[:0], total)[:total]
	for s := range t {
		for _, p := range sc.pos[s*stride:][:npos[s]] {
			sc.owner[sc.at[p]] = uint8(s)
			sc.at[p]++
		}
	}
}

// scoreTile walks the union once and scores each candidate against every
// tile vertex that sampled it while the candidate's arena record is hot,
// and returns the pairs scored. Each vertex keeps a heap of its best <= K
// edges so far with the worst at the root, in its own slot of the directed
// slab; once it is full, the root's weight is the floor a candidate must
// reach, which lets the kernel abandon hopeless pairs early. The kernel drops
// a pair only when it is provably below that floor, and the floor only
// rises, so the selection does not depend on the order candidates arrive in.
func (b *Builder) scoreTile(t []int32, sc *tileScratch) int {
	g, k, minWeight := b.g, b.cfg.K, b.cfg.MinWeight
	union := sc.seen.buf
	for _, i := range t {
		g.dirLen[i] = 0
	}
	lo := int32(0)
	for p, hi := range sc.at[:len(union)] {
		j := int(union[p])
		for _, s := range sc.owner[lo:hi] {
			i := int(t[s])
			top := g.dir[i*k : i*k+int(g.dirLen[i])]
			floor := minWeight
			if len(top) == k {
				floor = top[0].Weight
			}
			w, ok := b.arena.Weighted(i, j, floor, sc.sims)
			if !ok || !(w >= minWeight) { // written so a NaN weight is dropped too
				continue
			}
			e := Edge{To: j, Weight: w}
			switch {
			case len(top) < k:
				top = append(top, e)
				g.dirLen[i]++
				siftUp(top, len(top)-1)
			case rankEdges(e, top[0]) < 0:
				top[0] = e
				siftDown(top, 0)
			}
		}
		lo = hi
	}
	for _, i := range t {
		slices.SortFunc(g.directed(int(i)), rankEdges)
	}
	return len(sc.owner)
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

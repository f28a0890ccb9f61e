package labelprop

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

// refCandidates is the per-vertex candidate enumeration the Builder ran
// before vertices were grouped by key list, kept here as the reference the
// grouped path must reproduce exactly: walk the vertex's lists (its blocks in
// key order, whether the keys are categories or LSH band keys) in order,
// skip the vertex itself, keep first occurrences through an epoch-stamped
// set, and when more than maxCandidates remain draw a sample with
// rand.Rand.Shuffle from the vertex's own stream and sort it.
type refCandidates struct {
	stamp []int32
	epoch int32
}

func (r *refCandidates) of(i int, lists [][]int32, maxCandidates int, seed int64) []int {
	r.epoch++
	var out []int
	for _, list := range lists {
		for _, j := range list {
			if int(j) != i && r.stamp[j] != r.epoch {
				r.stamp[j] = r.epoch
				out = append(out, int(j))
			}
		}
	}
	if len(out) > maxCandidates {
		rng := xrand.New(seed ^ int64(i)*0x9e3779b9)
		rng.Shuffle(len(out), func(a, c int) { out[a], out[c] = out[c], out[a] })
		out = out[:maxCandidates]
		sort.Ints(out)
	}
	return out
}

// keyLists rebuilds a block index over vecs from nothing — no Builder state
// — under the given key function, and returns each vertex's blocks in its
// key order.
func keyLists(vecs []*feature.Vector, keys func(*feature.Vector) []uint64) [][][]int32 {
	index := make(map[uint64][]int32)
	vkeys := make([][]uint64, len(vecs))
	for i, v := range vecs {
		vkeys[i] = keys(v)
		for _, key := range vkeys[i] {
			index[key] = append(index[key], int32(i))
		}
	}
	lists := make([][][]int32, len(vecs))
	for i := range vecs {
		for _, key := range vkeys[i] {
			lists[i] = append(lists[i], index[key])
		}
	}
	return lists
}

// candidateIDs returns vertex i's candidates as vertex indexes, ascending:
// the builder's sample mapped through its group's union. buf is the
// sample's buffer, reused.
func candidateIDs(b *Builder, i int, sc *tileScratch, buf []int32) []int32 {
	ps := b.sample(i, sc, buf[:cap(buf)])
	for k, p := range ps {
		ps[k] = sc.seen.buf[p]
	}
	slices.Sort(ps)
	return ps
}

// allTiles returns every vertex's tile, as a first Flush would cut them.
func allTiles(b *Builder) [][]int32 {
	flushed := b.flushed
	b.flushed = 0
	tiles, _ := b.dirtyTiles()
	b.flushed = flushed
	return tiles
}

// checkCandidates requires the builder's sampler to return, for every vertex
// in the order given, exactly the reference set (both compared sorted: the
// order candidates are scored in does not reach the selection).
func checkCandidates(t *testing.T, b *Builder, order []int, lists [][][]int32) (sampled, whole int) {
	t.Helper()
	n := b.NumVertices()
	sc := b.newTileScratch()
	buf := make([]int32, n)
	ref := &refCandidates{stamp: make([]int32, n)}
	for _, i := range order {
		want := ref.of(i, lists[i], b.cfg.MaxCandidates, b.cfg.Seed)
		sort.Ints(want)
		got := candidateIDs(b, i, sc, buf)
		if len(got) != len(want) {
			t.Fatalf("%d vertices, vertex %d: %d candidates, reference %d", n, i, len(got), len(want))
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("%d vertices, vertex %d: candidate %d is %d, reference %d", n, i, k, got[k], want[k])
			}
		}
		if len(want) == b.cfg.MaxCandidates {
			sampled++
		} else {
			whole++
		}
	}
	return sampled, whole
}

// blockCorpus draws vertices over three blocking features: a fine topic, a
// coarse topic implied by it, and a multi-valued tag list that sometimes
// repeats a tag (so a vertex's key list repeats a key). Every 17th vertex has
// no blocking category at all.
func blockCorpus(n int, seed int64) (*feature.Schema, []*feature.Vector) {
	s := feature.MustSchema(
		feature.Def{Name: "topic", Kind: feature.Categorical},
		feature.Def{Name: "coarse", Kind: feature.Categorical},
		feature.Def{Name: "tags", Kind: feature.Categorical},
		feature.Def{Name: "score", Kind: feature.Numeric},
	)
	rng := xrand.New(seed)
	vecs := make([]*feature.Vector, n)
	for i := range vecs {
		v := feature.NewVector(s)
		v.MustSet("score", feature.NumericValue(rng.NormFloat64()))
		if i%17 != 3 {
			topic := rng.Intn(12)
			v.MustSet("topic", feature.CategoricalValue(fmt.Sprintf("t%d", topic)))
			if rng.Intn(10) > 0 {
				v.MustSet("coarse", feature.CategoricalValue(fmt.Sprintf("c%d", topic%3)))
			}
			var tags []string
			for k := rng.Intn(3); k > 0; k-- {
				tags = append(tags, fmt.Sprintf("g%d", rng.Intn(4)))
			}
			if len(tags) > 1 && rng.Intn(3) == 0 {
				tags = append(tags, tags[0])
			}
			if tags != nil {
				v.MustSet("tags", feature.CategoricalValue(tags...))
			}
		}
		vecs[i] = v
	}
	return s, vecs
}

// TestBlockedCandidatesMatchPerVertexReference feeds a corpus in one delta
// and in 257-row deltas and, after every delta, compares every vertex's
// candidate list with the per-vertex reference over the prefix seen so far —
// with MaxCandidates below every union, above every union and in between,
// with single- and multi-valued blocking features, in vertex order (the
// scratch union is rebuilt at almost every step) and in the builder's own
// group order (it is reused).
func TestBlockedCandidatesMatchPerVertexReference(t *testing.T) {
	s, vecs := blockCorpus(700, 31)
	for _, tc := range []struct {
		feats         []string
		maxCandidates int
	}{
		{[]string{"topic"}, 20},
		{[]string{"topic", "coarse"}, 40},
		{[]string{"coarse", "tags", "topic"}, 150},
		{[]string{"tags", "topic"}, 1 << 20},
	} {
		for _, chunk := range []int{len(vecs), 257} {
			cfg := GraphConfig{K: 4, Seed: 53, Workers: 2, BlockFeatures: tc.feats, MaxCandidates: tc.maxCandidates}
			b, err := NewBuilder(s, cfg, feature.Scales{"score": 1})
			if err != nil {
				t.Fatal(err)
			}
			slots, err := blockSlots(s, tc.feats)
			if err != nil {
				t.Fatal(err)
			}
			keys := func(v *feature.Vector) []uint64 { return blockKeys(v, slots) }
			sampled, whole := 0, 0
			for lo := 0; lo < len(vecs); lo += chunk {
				hi := min(lo+chunk, len(vecs))
				if err := b.ApplyDelta(context.Background(), vecs[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lists := keyLists(vecs[:hi], keys)
				order := make([]int, hi)
				for i := range order {
					order[i] = i
				}
				sa, wh := checkCandidates(t, b, order, lists)
				slices.SortStableFunc(order, func(x, y int) int { return int(b.groupOf[x]) - int(b.groupOf[y]) })
				checkCandidates(t, b, order, lists)
				sampled, whole = sampled+sa, whole+wh
				for i := 3; i < hi; i += 17 {
					if len(b.groupKeys[b.groupOf[i]]) != 0 || b.Graph().directed(i) != nil {
						t.Fatalf("vertex %d has no block key but keys %v, selection %v", i, b.groupKeys[b.groupOf[i]], b.Graph().directed(i))
					}
				}
			}
			if groups := len(b.groupKeys); groups > len(vecs)/2 || groups < 12 {
				t.Errorf("%v: %d groups over %d vertices; the corpus no longer shares key lists", tc.feats, groups, len(vecs))
			}
			if below := tc.maxCandidates < 700; (sampled > 0) != below || whole == 0 {
				t.Errorf("%v max %d: %d sampled, %d whole lists; the case lost a side", tc.feats, tc.maxCandidates, sampled, whole)
			}
		}
	}
}

// TestLSHCandidatesMatchPerVertexReference is the same comparison with LSH
// band keys as the block keys: the reference rebuilds the block index from
// the hasher's keys alone and samples with rand.Rand.
func TestLSHCandidatesMatchPerVertexReference(t *testing.T) {
	vecs := sweepVecs(400, 9)
	cfg := GraphConfig{K: 4, Seed: 7, Workers: 2, LSH: LSHConfig{Enable: true}, MaxCandidates: 22}
	b := applyChunked(t, cfg, vecs, feature.FitScales(sweepSchema, vecs), 257)
	h, err := newLSHHasher(sweepSchema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(vecs))
	for i := range order {
		order[i] = i
	}
	if sampled, whole := checkCandidates(t, b, order, keyLists(vecs, h.sign)); sampled == 0 || whole == 0 {
		t.Errorf("%d sampled, %d whole lists; the case lost a side", sampled, whole)
	}
}

// TestSampledCandidatesAllocateNothing: with a worker's scratch warmed by one
// pass, sampling and scoring every tile again allocates nothing — no
// *rand.Rand, no source, no per-vertex edge list or buffer — and rewrites
// the same selections.
func TestSampledCandidatesAllocateNothing(t *testing.T) {
	s, vecs := blockCorpus(700, 31)
	cfg := GraphConfig{K: 4, Seed: 53, BlockFeatures: []string{"topic", "coarse"}, MaxCandidates: 20}
	b, err := NewBuilder(s, cfg, feature.Scales{"score": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDelta(context.Background(), vecs); err != nil {
		t.Fatal(err)
	}
	want := adjacencyDigest(b.Graph())
	tiles := allTiles(b)
	sc := b.newTileScratch()
	pass := func() {
		for _, tl := range tiles {
			b.sampleTile(tl, sc)
			b.scoreTile(tl, sc)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Errorf("%v allocations per pass over %d tiles, want 0", allocs, len(tiles))
	}
	b.g.symmetrize()
	if got := adjacencyDigest(b.g); got != want {
		t.Errorf("re-selecting every tile moved the graph: %s, flushed %s", got, want)
	}
}

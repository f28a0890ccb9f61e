package labelprop

import (
	"fmt"
	"math"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

// MinHash-LSH approximate candidate generation for BuildGraph. Blocking on
// categorical features scans every vertex sharing a blocking category, so
// its per-vertex cost grows with block size — O(n²/blocks)-flavored on
// corpora whose blocking features are coarse. LSH blocks on band keys
// instead: each vertex's categorical sets (the sets feature.SimKernel
// intersects, hashed by category string) are MinHash-signed, the signature
// is cut into bands, and each band's hash is one of the vertex's block keys
// — so only vertices colliding in at least one band become candidates. The
// Builder's one block index, candidate enumerator and sampler serve both key
// kinds, and candidates are scored with the same kernel, so edge weights
// are bit-identical — only recall over which edges exist can differ.

// LSHConfig configures approximate candidate generation. The zero value is
// disabled, so existing GraphConfigs (and recorded golden outputs) are
// untouched.
type LSHConfig struct {
	// Enable makes a vertex's block keys its signature band keys.
	Enable bool
}

// Signatures hash every categorical feature of the schema into lshBands
// bands of lshRows rows: the banding a 64-hash budget gets for a target
// Jaccard of 0.4. A pair with Jaccard J collides in at least one band with
// probability 1-(1-J^r)^b, an S-curve steepest near (1/b)^(1/r), a knee that
// grows with r. With b = 64/r, r = 3 (b = 21, knee 0.362) is the largest r
// whose knee stays at or below 0.4 (r = 4: 0.5), so it is the most
// junk-suppressing banding that still catches pairs at the target with high
// probability.
const lshBands, lshRows = 21, 3

// lshHasher is the corpus-independent signing state: which categorical
// features feed signatures and the per-hash/band/feature salts, all
// derived from the graph seed alone.
type lshHasher struct {
	feats    []int
	salts    []uint64
	bandSalt []uint64
	featSalt []uint64
}

// newLSHHasher picks the schema's categorical features and derives the salt
// set from cfg.Seed.
func newLSHHasher(schema *feature.Schema, cfg GraphConfig) (*lshHasher, error) {
	var feats []int
	for i := 0; i < schema.Len(); i++ {
		if schema.Def(i).Kind == feature.Categorical {
			feats = append(feats, i)
		}
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("labelprop: LSH needs at least one categorical feature")
	}

	// Hash salts derive from the graph seed so signatures are reproducible
	// per (Seed, vertex) — the same contract the candidate sampler has.
	base := xrand.Mix(uint64(cfg.Seed) ^ 0xc2b2ae3d27d4eb4f)
	h := &lshHasher{feats: feats}
	h.salts = make([]uint64, lshBands*lshRows)
	for k := range h.salts {
		h.salts[k] = xrand.Mix(base + uint64(k+1)*0x9e3779b97f4a7c15)
	}
	h.bandSalt = make([]uint64, lshBands)
	for b := range h.bandSalt {
		h.bandSalt[b] = xrand.Mix(base ^ uint64(b+1)*0xff51afd7ed558ccd)
	}
	h.featSalt = make([]uint64, len(feats))
	for fi, f := range feats {
		h.featSalt[fi] = xrand.Mix(uint64(f+1) * 0x2545f4914f6cdd1d)
	}
	return h, nil
}

// sign MinHash-signs one vector and returns its band keys, or nil when the
// vector has no hashed categorical content (such vertices get no
// candidates, like a vertex with no category on any blocking feature).
func (h *lshHasher) sign(v *feature.Vector) []uint64 {
	sig := make([]uint64, lshBands*lshRows)
	for k := range sig {
		sig[k] = math.MaxUint64
	}
	any := false
	for fi, f := range h.feats {
		// Elements are hashed by category name: intern IDs follow the order
		// featurization happened to run in, so they are not reproducible.
		for _, id := range v.CategoryList(f) {
			any = true
			elem := xrand.HashString(h.featSalt[fi], feature.InternedCategory(id))
			for k, salt := range h.salts {
				if hv := xrand.Mix(elem ^ salt); hv < sig[k] {
					sig[k] = hv
				}
			}
		}
	}
	if !any {
		return nil
	}
	keys := make([]uint64, lshBands)
	for b := 0; b < lshBands; b++ {
		key := h.bandSalt[b]
		for r := 0; r < lshRows; r++ {
			key = xrand.Mix(key ^ sig[b*lshRows+r])
		}
		keys[b] = key
	}
	return keys
}

// Recall reports the fraction of ref's edges also present in g — the
// quality metric for approximate graph construction (edge weights cannot
// differ, only membership). Both graphs must cover the same vertices;
// adjacency lists are sorted by vertex (symmetrize's postcondition), so
// the comparison is a linear merge. An empty reference has recall 1.
func Recall(ref, g *Graph) float64 {
	total, hit := 0, 0
	for i := 0; i < ref.NumVertices(); i++ {
		gs := g.Neighbors(i)
		j := 0
		for _, e := range ref.Neighbors(i) {
			total++
			for j < len(gs) && gs[j].To < e.To {
				j++
			}
			if j < len(gs) && gs[j].To == e.To {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

package feature

import (
	"maps"
	"sync"
	"sync/atomic"
)

// The category interner maps category strings to dense uint32 IDs so the
// similarity hot path can intersect categorical sets by integer merge
// instead of hashing strings into a per-pair map. The table is process-wide
// rather than per-Schema: IDs are then stable across Reproject/Clone (which
// carry values between schemas), and a value interned once never needs
// re-interning. Only ID *equality* is ever consulted — Jaccard depends on
// intersection/union counts, not ID order — so the assignment order being
// scheduling-dependent under parallel featurization cannot leak into
// results.
//
// Lookups of an already published category read an immutable snapshot map
// behind an atomic pointer: no lock, and no shared cache line written (an
// RWMutex reader count is one, and every categorical value of every row
// crosses this function). Assignment stays under one mutex so IDs are dense.
// The ID → name direction reads the names slice as last published: it only
// ever grows, and every ID is published before InternID returns it.
var interner = struct {
	snap  atomic.Pointer[map[string]uint32] // immutable once stored; nil until the first publish
	named atomic.Pointer[[]string]          // names as of the last assignment; entries never change

	mu     sync.Mutex
	ids    map[string]uint32 // every assignment; guarded by mu
	names  []string          // names[id] is the category ID id was assigned to; guarded by mu
	misses int               // locked lookups since snap was published; guarded by mu
}{ids: make(map[string]uint32, 256)}

// InternID returns the dense ID of category c, assigning the next free ID
// on first sight. Safe for concurrent use. Exported so indexes keyed by
// single categories (the blocked graph builder's block table) can use the
// same integers the similarity kernel compares.
func InternID(c string) uint32 {
	if snap := interner.snap.Load(); snap != nil {
		if id, ok := (*snap)[c]; ok {
			return id
		}
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	id, ok := interner.ids[c]
	if !ok {
		id = uint32(len(interner.ids))
		interner.ids[c] = id
		interner.names = append(interner.names, c)
		names := interner.names
		interner.named.Store(&names)
	}
	// Republish once the lookups that had to lock add up to the table size:
	// the copy is then amortised O(1) per locked lookup, and a category that
	// keeps being seen moves to the lock-free path.
	if interner.misses++; interner.misses >= len(interner.ids) {
		snap := maps.Clone(interner.ids)
		interner.snap.Store(&snap)
		interner.misses = 0
	}
	return id
}

// InternCount returns how many categories the process-wide table holds (IDs
// are dense, so also the next ID to be assigned). It lets a caller assert
// that some operation — opening a corrupt segment, say — interned nothing.
func InternCount() int {
	interner.mu.Lock()
	defer interner.mu.Unlock()
	return len(interner.ids)
}

// InternedCategory returns the category InternID assigned id to, without a
// lock or an allocation: how a value stored as IDs gets its names back where
// bytes must carry them (segment dictionaries, vocabularies, LSH hashing).
// id must have come from InternID.
func InternedCategory(id uint32) string { return (*interner.named.Load())[id] }

// internCategories returns the sorted, deduplicated intern IDs of cats, or
// nil when cats is empty.
func internCategories(cats []string) []uint32 {
	if len(cats) == 0 {
		return nil
	}
	ids := make([]uint32, len(cats))
	for i, c := range cats {
		ids[i] = InternID(c)
	}
	return sortedIDSet(ids)
}

// sortedIDSet sorts ids and drops duplicates in place (multisets collapse to
// sets, matching Jaccard). Category sets are tiny (a handful of values), so
// an insertion sort beats sort.Slice and allocates nothing.
func sortedIDSet(ids []uint32) []uint32 {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ids[:min(1, len(ids))]
	for _, id := range ids[len(out):] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// JaccardIDs returns the Jaccard similarity of two sorted, deduplicated
// intern-ID sets by allocation-free sorted merge. Two empty sets have
// similarity 1, mirroring Jaccard.
func JaccardIDs(a, b []uint32) float64 {
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// SimKernel is a compiled similarity kernel for one schema: feature kinds,
// numeric scales, and importance weights resolved from their name-keyed
// maps into index-aligned slices once, so the per-pair path performs no map
// lookups and no allocations. Build one per graph-construction or
// weight-fitting call; all vectors scored by the kernel must carry the
// kernel's schema. Per-feature similarities come from Similarity; the
// weighted whole-vector score lives on the kernel's packed Arena.
type SimKernel struct {
	kinds   []Kind
	scales  []float64 // per feature index; <= 0 falls back to 1 (NumericSimilarity)
	weights []float64 // per feature index; <= 0 drops the feature
}

// NewSimKernel compiles scales and weights against schema. nil weights mean
// uniform weight 1, matching WeightedSimilarity.
func NewSimKernel(schema *Schema, scales Scales, weights Weights) *SimKernel {
	n := schema.Len()
	k := &SimKernel{
		kinds:   make([]Kind, n),
		scales:  make([]float64, n),
		weights: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		d := schema.Def(i)
		k.kinds[i] = d.Kind
		k.scales[i] = scales[d.Name]
		w := 1.0
		if weights != nil {
			if got, exists := weights[d.Name]; exists {
				w = got
			}
		}
		k.weights[i] = w
	}
	return k
}

// Similarity is the kernel form of the package-level Similarity: the [0,1]
// contribution of feature position i between two vectors, and false when
// the feature is missing on either side.
func (k *SimKernel) Similarity(a, b *Vector, i int) (float64, bool) {
	return similarity(a, b, i, k.kinds[i], k.scales[i])
}

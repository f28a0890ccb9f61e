package feature

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Arena is a packed, append-only store of vectors laid out for one
// SimKernel, scored pairwise by vertex index. Graph construction scores
// each vertex against hundreds of candidates; walking two vectors' cells and
// payloads per pair (an indirection per categorical set, embedding norms
// recomputed per pair) made that loop memory-bound. The arena keeps,
// per vertex:
//
//   - a presence mask, one bit per active feature in schema order
//     (any schema width: the mask is as many words as the layout needs);
//   - a fixed-stride block of numeric values;
//   - one contiguous categorical record: the end offset of each
//     categorical feature's set followed by the sorted, deduplicated
//     intern IDs of all its sets;
//   - its embeddings, with each squared norm summed once at append time in
//     CosineSimilarity's order;
//   - the weight of its present features, summed once at append time in
//     schema order: the bound Weighted's early exit tests against.
//
// Features the kernel drops (weight <= 0) are compiled out of the layout.
// Weighted is bit-identical to WeightedSimilarity over the maps the kernel
// was compiled from: same accumulation order, same per-feature expressions.
//
// Append is not safe for concurrent use; Weighted only reads, so any number
// of goroutines may score once appends have finished.
type Arena struct {
	feats      []arenaFeat // active features, schema order; bit s of the mask is feats[s]
	ranked     []arenaFeat // feats by descending weight, schema order among ties
	words      int         // mask words per vertex
	nNum, nCat int         // numeric / categorical columns per vertex
	nEmb       int         // embedding columns per vertex

	// Per-vertex storage, n = len(catPos) vertices.
	masks   []uint64  // n*words
	nums    []float64 // n*nNum
	catPos  []int     // start of the vertex's record in catRec
	catRec  []uint32  // per vertex: nCat set-end offsets, then the IDs
	embOff  []int     // n*nEmb+1 offsets into embData
	embNorm []float64 // n*nEmb squared norms
	embData []float64
	wsum    []float64 // n: the weight of the vertex's present features
}

type arenaFeat struct {
	schemaIdx int
	slot      int // index in feats: the feature's mask bit
	kind      Kind
	col       int     // column within the kind's per-vertex block
	weight    float64 // > 0
	scale     float64 // numeric only; already defaulted to 1 when <= 0
}

// NewArena compiles the kernel's layout into an empty arena.
func (k *SimKernel) NewArena() *Arena {
	a := &Arena{embOff: []int{0}}
	for i, kind := range k.kinds {
		w := k.weights[i]
		if w <= 0 {
			continue
		}
		f := arenaFeat{schemaIdx: i, slot: len(a.feats), kind: kind, weight: w}
		switch kind {
		case Categorical:
			f.col = a.nCat
			a.nCat++
		case Numeric:
			f.col = a.nNum
			a.nNum++
			f.scale = k.scales[i]
			if f.scale <= 0 {
				f.scale = 1
			}
		case Embedding:
			f.col = a.nEmb
			a.nEmb++
		default:
			continue // unknown kinds never contribute (Similarity reports !ok)
		}
		a.feats = append(a.feats, f)
	}
	a.words = (len(a.feats) + 63) / 64
	// The heaviest features decide most pairs the floor rejects, so the
	// early exit meets them first.
	a.ranked = slices.Clone(a.feats)
	slices.SortStableFunc(a.ranked, func(x, y arenaFeat) int { return cmp.Compare(y.weight, x.weight) })
	return a
}

// Len returns the number of vectors appended so far.
func (a *Arena) Len() int { return len(a.catPos) }

// Append packs the rows of parts, column views under the kernel's schema, as
// the next vertices, in order. Each categorical cell is sorted and
// deduplicated into the ID set Weighted intersects. One pass counts the
// batch's category IDs and embedding floats, so every column grows at most
// once per call, not once per vertex, and at least doubles when it does, so
// a stream of small calls reallocates each column O(log n) times.
func (a *Arena) Append(parts ...Columns) {
	var n, ids, floats int
	var idBuf []uint32
	var embBuf []float64
	for _, c := range parts {
		for r := range c.Rows() {
			for _, f := range a.feats {
				switch f.kind {
				case Categorical:
					idBuf = c.CatIDs(f.schemaIdx, r, idBuf[:0])
					ids += len(idBuf)
				case Embedding:
					embBuf = c.Emb(f.schemaIdx, r, embBuf[:0])
					floats += len(embBuf)
				}
			}
		}
		n += c.Rows()
	}
	a.masks = grow(a.masks, n*a.words)
	a.nums = grow(a.nums, n*a.nNum)
	a.catPos = grow(a.catPos, n)
	a.catRec = grow(a.catRec, n*a.nCat+ids)
	a.embOff = grow(a.embOff, n*a.nEmb)
	a.embNorm = grow(a.embNorm, n*a.nEmb)
	a.embData = grow(a.embData, floats)
	a.wsum = grow(a.wsum, n)
	for _, c := range parts {
		for r := range c.Rows() {
			a.appendRow(c, r)
		}
	}
}

// appendRow packs row r of c as the next vertex.
func (a *Arena) appendRow(c Columns, r int) {
	maskBase, numBase, recBase := len(a.masks), len(a.nums), len(a.catRec)
	a.masks = append(a.masks, make([]uint64, a.words)...)
	a.nums = append(a.nums, make([]float64, a.nNum)...)
	a.catPos = append(a.catPos, recBase)
	a.catRec = append(a.catRec, make([]uint32, a.nCat)...)
	idBase := len(a.catRec)

	// Features are visited in schema order, so categorical and embedding
	// columns fill in column order and their offsets stay monotone, and
	// the weight total adds in WeightedSimilarity's order.
	var wsum float64
	for s, f := range a.feats {
		present := c.Present(f.schemaIdx, r)
		if present {
			a.masks[maskBase+s/64] |= 1 << (s % 64)
			wsum += f.weight
		}
		switch f.kind {
		case Numeric:
			if present {
				a.nums[numBase+f.col] = c.Num(f.schemaIdx, r)
			}
		case Categorical:
			at := len(a.catRec)
			a.catRec = c.CatIDs(f.schemaIdx, r, a.catRec)
			a.catRec = a.catRec[:at+len(sortedIDSet(a.catRec[at:]))]
			a.catRec[recBase+f.col] = uint32(len(a.catRec) - idBase)
		case Embedding:
			at := len(a.embData)
			a.embData = c.Emb(f.schemaIdx, r, a.embData)
			var norm float64
			for _, x := range a.embData[at:] {
				norm += x * x
			}
			a.embOff = append(a.embOff, len(a.embData))
			a.embNorm = append(a.embNorm, norm)
		}
	}
	a.wsum = append(a.wsum, wsum)
}

// grow returns s with room for n more elements. When it must reallocate it
// at least doubles the capacity.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s)-len(s)))
}

// SimScratch returns scratch for Weighted: one similarity per active
// feature. A caller scoring many pairs makes it once and reuses it.
func (a *Arena) SimScratch() []float64 { return make([]float64, len(a.feats)) }

// Weighted returns the weighted similarity of vertices i and j — the
// weighted mean of per-feature similarities over the features present on
// both sides, bit-identical to WeightedSimilarity — and true. sims is
// scratch from SimScratch; one goroutine's calls may share it.
//
// floor is an exact early exit for top-K selection: when the pair's weight
// is provably below floor, Weighted stops and returns (0, false). The
// shared features are scored heaviest first, each similarity kept in sims.
// Every similarity is at most 1 and T = min(W_i, W_j) bounds the shared
// weight, so after each feature sum + max(0, T − wsum) bounds the final
// numerator over T; the pair is dropped once that is below floor·T by more
// than a 1e-9 relative slack, which dwarfs the rounding of either side. A
// pair whose weight equals floor is therefore never dropped. A survivor's
// sum and wsum are then re-accumulated from sims in schema order, exactly as
// WeightedSimilarity adds them. floor <= 0 disables the exit.
func (a *Arena) Weighted(i, j int, floor float64, sims []float64) (float64, bool) {
	sims = sims[:len(a.feats)]
	mi := a.masks[i*a.words : (i+1)*a.words]
	mj := a.masks[j*a.words : (j+1)*a.words]
	ci, cj := a.catRec[a.catPos[i]:], a.catRec[a.catPos[j]:]

	total := min(a.wsum[i], a.wsum[j])
	cut := math.Inf(-1)
	if floor > 0 {
		cut = floor * total * (1 - 1e-9)
	}
	var sum, wsum float64
	for k := range a.ranked {
		f := &a.ranked[k]
		if mi[f.slot>>6]&mj[f.slot>>6]&(1<<(f.slot&63)) == 0 {
			continue
		}
		var s float64
		switch f.kind {
		case Categorical:
			// The two sets' bounds come straight from the records' end
			// offsets. Two singletons — almost every pair — need no
			// merge: JaccardIDs would return 1/1 or 0/2.
			var li, lj uint32
			if f.col > 0 {
				li, lj = ci[f.col-1], cj[f.col-1]
			}
			hi, hj := ci[f.col], cj[f.col]
			if hi-li != 1 || hj-lj != 1 {
				s = JaccardIDs(ci[a.nCat:][li:hi], cj[a.nCat:][lj:hj])
			} else if ci[a.nCat+int(li)] == cj[a.nCat+int(lj)] {
				s = 1
			}
		case Numeric:
			s = math.Exp(-math.Abs(a.nums[i*a.nNum+f.col]-a.nums[j*a.nNum+f.col]) / f.scale)
		case Embedding:
			s = (a.cosine(i*a.nEmb+f.col, j*a.nEmb+f.col) + 1) / 2
		}
		sims[f.slot] = s
		// The conversion rounds the product, so no platform fuses it into
		// the add: the bound's rounding is the same everywhere.
		sum += float64(f.weight * s)
		wsum += f.weight
		if sum+max(0, total-wsum) < cut {
			return 0, false
		}
	}

	sum, wsum = 0, 0
	for w, m := range mi {
		for both := m & mj[w]; both != 0; both &= both - 1 {
			s := w*64 + bits.TrailingZeros64(both)
			sum += a.feats[s].weight * sims[s]
			wsum += a.feats[s].weight
		}
	}
	if wsum == 0 {
		return 0, true
	}
	return sum / wsum, true
}

// cosine is CosineSimilarity over two packed embeddings (x, y index
// embOff/embNorm) with the squared norms read instead of re-summed.
func (a *Arena) cosine(x, y int) float64 {
	va := a.embData[a.embOff[x]:a.embOff[x+1]]
	vb := a.embData[a.embOff[y]:a.embOff[y+1]]
	if len(va) != len(vb) || len(va) == 0 {
		return 0
	}
	vb = vb[:len(va)]
	var dot float64
	for k := range va {
		dot += va[k] * vb[k]
	}
	na, nb := a.embNorm[x], a.embNorm[y]
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

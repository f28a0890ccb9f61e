package feature

import (
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
//     CosineSimilarity's order.
//
// Features the kernel drops (weight <= 0) are compiled out of the layout.
// Weighted is bit-identical to WeightedSimilarity over the maps the kernel
// was compiled from: same feature order, same accumulation, same
// per-feature expressions.
//
// Append is not safe for concurrent use; Weighted only reads, so any number
// of goroutines may score once appends have finished.
type Arena struct {
	feats      []arenaFeat // active features, schema order; bit s of the mask is feats[s]
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
}

type arenaFeat struct {
	schemaIdx int
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
		f := arenaFeat{schemaIdx: i, kind: kind, weight: w}
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
	return a
}

// Len returns the number of vectors appended so far.
func (a *Arena) Len() int { return len(a.catPos) }

// Append packs vs as the next vertices, in order. Each must carry the
// kernel's schema. One pass counts the batch's category IDs and embedding
// floats, so every column grows once per call, not once per vertex.
func (a *Arena) Append(vs ...*Vector) {
	var ids, floats int
	for _, v := range vs {
		for _, f := range a.feats {
			switch f.kind {
			case Categorical:
				ids += len(v.CategoryIDs(f.schemaIdx))
			case Embedding:
				floats += len(v.Vec(f.schemaIdx))
			}
		}
	}
	n := len(vs)
	a.masks = slices.Grow(a.masks, n*a.words)
	a.nums = slices.Grow(a.nums, n*a.nNum)
	a.catPos = slices.Grow(a.catPos, n)
	a.catRec = slices.Grow(a.catRec, n*a.nCat+ids)
	a.embOff = slices.Grow(a.embOff, n*a.nEmb)
	a.embNorm = slices.Grow(a.embNorm, n*a.nEmb)
	a.embData = slices.Grow(a.embData, floats)
	for _, v := range vs {
		maskBase, numBase, recBase := len(a.masks), len(a.nums), len(a.catRec)
		a.masks = append(a.masks, make([]uint64, a.words)...)
		a.nums = append(a.nums, make([]float64, a.nNum)...)
		a.catPos = append(a.catPos, recBase)
		a.catRec = append(a.catRec, make([]uint32, a.nCat)...)
		idBase := len(a.catRec)

		// Features are visited in schema order, so categorical and embedding
		// columns fill in column order and their offsets stay monotone.
		for s, f := range a.feats {
			if v.Present(f.schemaIdx) {
				a.masks[maskBase+s/64] |= 1 << (s % 64)
			}
			switch f.kind {
			case Numeric:
				a.nums[numBase+f.col] = v.Num(f.schemaIdx)
			case Categorical:
				a.catRec = append(a.catRec, v.CategoryIDs(f.schemaIdx)...)
				a.catRec[recBase+f.col] = uint32(len(a.catRec) - idBase)
			case Embedding:
				vec := v.Vec(f.schemaIdx)
				var norm float64
				for _, x := range vec {
					norm += x * x
				}
				a.embData = append(a.embData, vec...)
				a.embOff = append(a.embOff, len(a.embData))
				a.embNorm = append(a.embNorm, norm)
			}
		}
	}
}

// Weighted returns the weighted similarity of vertices i and j — the
// weighted mean of per-feature similarities over the features present on
// both sides, bit-identical to WeightedSimilarity — and true.
//
// floor is an exact early exit for top-K selection: when the pair's weight
// is provably below floor, Weighted stops and returns (0, false). The
// both-present weight total is known from the masks before any feature is
// scored, and every per-feature similarity is at most 1, so after each
// feature sum + (total - wsum) bounds the final numerator; the pair is
// dropped only once that bound is below floor*total by more than a 1e-9
// relative slack, which dwarfs the rounding of either side. A pair whose
// weight equals floor is therefore never dropped, and every pair that
// survives is computed in full. floor <= 0 disables the exit.
func (a *Arena) Weighted(i, j int, floor float64) (float64, bool) {
	mi := a.masks[i*a.words : (i+1)*a.words]
	mj := a.masks[j*a.words : (j+1)*a.words]

	// Weights of the both-present features, summed in feature order: this
	// is exactly the wsum WeightedSimilarity ends with.
	var total float64
	for w, m := range mi {
		for both := m & mj[w]; both != 0; both &= both - 1 {
			total += a.feats[w*64+bits.TrailingZeros64(both)].weight
		}
	}
	if total == 0 {
		return 0, true
	}
	cut := math.Inf(-1)
	if floor > 0 {
		cut = floor * total * (1 - 1e-9)
	}
	ci, cj := a.catRec[a.catPos[i]:], a.catRec[a.catPos[j]:]

	var sum, wsum float64
	for w, m := range mi {
		for both := m & mj[w]; both != 0; both &= both - 1 {
			f := &a.feats[w*64+bits.TrailingZeros64(both)]
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
			sum += f.weight * s
			wsum += f.weight
			if sum+(total-wsum) < cut {
				return 0, false
			}
		}
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

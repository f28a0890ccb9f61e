package feature

import "math"

// ScalesAccum computes FitScales incrementally, so the curation can fit
// similarity scales over a corpus it only ever sees in chunks of column
// views. FitScales is a two-pass statistic (mean, then mean absolute
// deviation), so the same chunks are fed twice, in the same order:
//
//	acc := NewScalesAccum(schema)
//	for each chunk { acc.AddColumns(views) }
//	acc.FinishMeans()
//	for each chunk { acc.AddColumns(views) }
//	scales := acc.Scales()
//
// Each numeric feature keeps an independent running sum in row order — the
// exact float additions FitScales performs — so the result is bit-identical
// to FitScales over the concatenated chunks.
type ScalesAccum struct {
	schema *Schema
	cols   []int // schema positions of numeric features
	sum    []float64
	n      []int
	mean   []float64
	dev    []float64
	phase  int // 0 = means, 1 = devs, 2 = done
}

// NewScalesAccum returns an accumulator for schema's numeric features.
func NewScalesAccum(schema *Schema) *ScalesAccum {
	a := &ScalesAccum{schema: schema}
	for i := 0; i < schema.Len(); i++ {
		if schema.Def(i).Kind == Numeric {
			a.cols = append(a.cols, i)
		}
	}
	k := len(a.cols)
	a.sum = make([]float64, k)
	a.n = make([]int, k)
	a.mean = make([]float64, k)
	a.dev = make([]float64, k)
	return a
}

// AddColumns feeds one chunk, as views under the accumulator's schema, to
// the current pass: the means until FinishMeans, then the deviations.
func (a *ScalesAccum) AddColumns(parts []Columns) {
	if a.phase == 2 {
		panic("feature: ScalesAccum.AddColumns after Scales")
	}
	for j, col := range a.cols {
		if a.phase == 1 && a.n[j] == 0 {
			continue
		}
		for _, c := range parts {
			for r := range c.Rows() {
				switch {
				case !c.Present(col, r):
				case a.phase == 0:
					a.sum[j] += c.Num(col, r)
					a.n[j]++
				default:
					a.dev[j] += math.Abs(c.Num(col, r) - a.mean[j])
				}
			}
		}
	}
}

// AddMeans and AddDevs are AddColumns over vectors, in the pass each names;
// only bench/ still calls them.
func (a *ScalesAccum) AddMeans(vectors []*Vector) { a.addVectors(0, vectors) }
func (a *ScalesAccum) AddDevs(vectors []*Vector)  { a.addVectors(1, vectors) }

func (a *ScalesAccum) addVectors(phase int, vectors []*Vector) {
	if a.phase != phase {
		panic("feature: ScalesAccum fed vectors outside their pass")
	}
	a.AddColumns(VectorColumns(a.schema, vectors))
}

// FinishMeans closes the first pass.
func (a *ScalesAccum) FinishMeans() {
	if a.phase != 0 {
		panic("feature: ScalesAccum.FinishMeans called twice")
	}
	for j := range a.cols {
		if a.n[j] > 0 {
			a.mean[j] = a.sum[j] / float64(a.n[j])
		}
	}
	a.phase = 1
}

// Scales finalizes the fit. The result is bit-identical to
// FitScales(schema, allVectors).
func (a *ScalesAccum) Scales() Scales {
	if a.phase == 0 {
		panic("feature: ScalesAccum.Scales before FinishMeans")
	}
	a.phase = 2
	scales := make(Scales)
	for j, col := range a.cols {
		name := a.schema.Def(col).Name
		if a.n[j] == 0 {
			scales[name] = 1
			continue
		}
		scale := a.dev[j] / float64(a.n[j])
		if scale <= 0 {
			scale = 1
		}
		scales[name] = scale
	}
	return scales
}

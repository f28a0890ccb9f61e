package feature

import "math"

// ScalesAccum computes FitScales incrementally, so the streaming pipeline
// can fit similarity scales over a corpus it only ever sees in chunks.
// FitScales is a two-pass statistic (mean, then mean absolute deviation),
// so the accumulator is driven in two passes as well:
//
//	acc := NewScalesAccum(schema)
//	for each chunk { acc.AddMeans(chunk) }
//	acc.FinishMeans()
//	for each chunk { acc.AddDevs(chunk) }
//	scales := acc.Scales()
//
// Each numeric feature keeps an independent running sum in vector order —
// the exact float additions FitScales performs — so the result is
// bit-identical to FitScales over the concatenated chunks.
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

// AddMeans feeds one chunk to the first (mean) pass.
func (a *ScalesAccum) AddMeans(vectors []*Vector) {
	if a.phase != 0 {
		panic("feature: ScalesAccum.AddMeans after FinishMeans")
	}
	for j, col := range a.cols {
		for _, v := range vectors {
			if v.Present(col) {
				a.sum[j] += v.Num(col)
				a.n[j]++
			}
		}
	}
}

// FinishMeans closes the first pass; the same chunks must then be fed to
// AddDevs in the same order.
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

// AddDevs feeds one chunk to the second (deviation) pass.
func (a *ScalesAccum) AddDevs(vectors []*Vector) {
	if a.phase != 1 {
		panic("feature: ScalesAccum.AddDevs outside the deviation pass")
	}
	for j, col := range a.cols {
		if a.n[j] == 0 {
			continue
		}
		for _, v := range vectors {
			if v.Present(col) {
				a.dev[j] += math.Abs(v.Num(col) - a.mean[j])
			}
		}
	}
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

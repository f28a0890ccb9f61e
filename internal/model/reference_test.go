package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/sparse"
)

// The dense engines the sparse ones replaced, kept here as the differential
// reference: every loop walks all inDim columns of a dense row, in the
// parent's order, so "zero-skipping is exact" is a test, not prose.

// refForward is the dense float64 forward pass; acts[0] aliases x.
func refForward(m *MLP, x []float64, s *scratch) {
	s.acts[0] = x
	last := len(m.weights) - 1
	for l := range m.weights {
		in, out := s.acts[l], s.acts[l+1]
		W, bias, width := m.weights[l], m.biases[l], m.sizes[l]
		for o := range out {
			z := bias[o]
			for i, w := range W[o*width : (o+1)*width] {
				z += w * in[i]
			}
			switch {
			case l == last:
				out[o] = sigmoid(z)
			case z > 0:
				out[o] = z
			default:
				out[o] = 0
			}
		}
	}
}

// refAccumulate is the dense backward pass with the "first sample
// overwrites the buffer" trick the sparse trainer replaced by a zero-fill.
func refAccumulate(m *MLP, grad []float64, fresh bool, s *scratch, x []float64, target, w float64) {
	refForward(m, x, s)
	L := len(m.weights)
	s.deltas[L-1][0] = (s.output() - target) * w
	for l := L - 1; l >= 0; l-- {
		in, delta, width := s.acts[l], s.deltas[l], m.sizes[l]
		gW := grad[m.wOff[l] : m.wOff[l]+width*len(delta)]
		gB := grad[m.bOff[l] : m.bOff[l]+len(delta)]
		for o, d := range delta {
			row := gW[o*width : (o+1)*width]
			if fresh {
				gB[o] = d
				for i, v := range in {
					row[i] = d * v
				}
			} else {
				gB[o] += d
				for i, v := range in {
					row[i] += d * v
				}
			}
		}
		if l == 0 {
			break
		}
		W, prev := m.weights[l], s.deltas[l-1]
		for i := range prev {
			if in[i] <= 0 {
				prev[i] = 0
				continue
			}
			var sum float64
			for o, d := range delta {
				sum += d * W[o*width+i]
			}
			prev[i] = sum
		}
	}
}

// refTrain is the parent's Train, serial: same initialization, shuffle,
// eight-shard partition, shard-order merge and Adam sweep, dense throughout.
func refTrain(t *testing.T, X [][]float64, targets, sampleWeights []float64, cfg Config) *MLP {
	t.Helper()
	cfg = cfg.withDefaults()
	m, err := New(len(X[0]), cfg.Hidden, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := newAdam(m, cfg.LearningRate)
	var grads [numGradShards][]float64
	for s := range grads {
		grads[s] = make([]float64, len(m.params))
	}
	scr := m.newScratch()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			var bufs [][]float64
			var totalWeight float64
			for s := range grads {
				n := len(batch)
				total, fresh := 0.0, true
				for _, idx := range batch[s*n/numGradShards : (s+1)*n/numGradShards] {
					w := 1.0
					if sampleWeights != nil {
						w = sampleWeights[idx]
					}
					w *= 1 + (cfg.PositiveWeight-1)*targets[idx]
					if w == 0 {
						continue
					}
					total += w
					refAccumulate(m, grads[s], fresh, scr, X[idx], targets[idx], w)
					fresh = false
				}
				if total != 0 {
					totalWeight += total
					bufs = append(bufs, grads[s])
				}
			}
			if totalWeight != 0 {
				opt.apply(m, bufs, totalWeight, cfg.L2)
			}
		}
	}
	return m
}

// onehotFixture builds one-hot-shaped design rows through the vectorizer,
// dense and sparse, covering what the encoder can emit: duplicate and
// out-of-vocabulary categories, a missing feature of each kind, explicit
// zeros inside an embedding — plus an all-zero row no vectorizer produces.
func onehotFixture(t testing.TB, n int) (X [][]float64, rows *sparse.Rows, targets, weights []float64) {
	t.Helper()
	schema := feature.MustSchema(
		feature.Def{Name: "topic", Kind: feature.Categorical},
		feature.Def{Name: "tags", Kind: feature.Categorical},
		feature.Def{Name: "score", Kind: feature.Numeric},
		feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 5},
	)
	rng := rand.New(rand.NewSource(17))
	word := func() string { return fmt.Sprintf("w%02d", rng.Intn(14)) }
	vecs := make([]*feature.Vector, n)
	for i := range vecs {
		v := feature.NewVector(schema)
		if rng.Intn(8) != 0 {
			v.MustSet("topic", feature.CategoricalValue(word()))
		}
		if rng.Intn(8) != 0 {
			w := word()
			v.MustSet("tags", feature.CategoricalValue(w, word(), w, word())) // w twice
		}
		if rng.Intn(8) != 0 {
			v.MustSet("score", feature.NumericValue(rng.NormFloat64()*3+1))
		}
		if rng.Intn(8) != 0 {
			emb := make([]float64, 5)
			for k := range emb {
				if rng.Intn(3) != 0 { // a third stay explicit zeros
					emb[k] = rng.NormFloat64()
				}
			}
			v.MustSet("emb", feature.EmbeddingValue(emb))
		}
		vecs[i] = v
	}
	// Fit on a prefix with a capped vocabulary, so later rows carry OOV words.
	vz := feature.FitVectorizer(schema, vecs[:n/3], feature.WithMaxVocabulary(6))
	X = vz.TransformAllWorkers(vecs, 1)
	rows = vz.TransformSparse(vecs, 1)
	X = append(X, make([]float64, vz.Width()))
	rows.EndRow() // the all-zero row
	targets = make([]float64, len(X))
	weights = make([]float64, len(X))
	for i, x := range X {
		targets[i] = rng.Float64()
		if x[0] != 0 {
			targets[i] = 1
		}
		weights[i] = 0.5 + rng.Float64()
	}
	weights[3] = 0 // a sample the trainer skips
	return X, rows, targets, weights
}

func sameParams(t *testing.T, name string, got, want *MLP) {
	t.Helper()
	g, w := got.Params(), want.Params()
	if len(g) != len(w) {
		t.Fatalf("%s: %d params, reference has %d", name, len(g), len(w))
	}
	for j := range w {
		if g[j] != w[j] {
			t.Fatalf("%s: param[%d] = %x, dense reference %x (not bit-identical)", name, j, g[j], w[j])
		}
	}
}

// TestSparseTrainMatchesDenseReference: training on a row's entries yields
// the dense trainer's parameters to the last bit, through both entry points,
// for every architecture and worker count.
func TestSparseTrainMatchesDenseReference(t *testing.T) {
	X, rows, targets, weights := onehotFixture(t, 240)
	for _, arch := range []struct {
		name   string
		hidden []int
	}{{"logreg", nil}, {"mlp16", []int{16}}, {"mlp32x8", []int{32, 8}}} {
		cfg := Config{Hidden: arch.hidden, Epochs: 3, Seed: 5, PositiveWeight: 2, BatchSize: 20}
		want := refTrain(t, X, targets, weights, cfg)
		for _, workers := range []int{1, 2, 8} {
			cfg.Workers = workers
			name := fmt.Sprintf("%s/workers=%d", arch.name, workers)
			got, err := TrainRows(ctxbg, rows, targets, weights, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameParams(t, name+"/rows", got, want)
			got, err = Train(ctxbg, X, targets, weights, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameParams(t, name+"/dense", got, want)
		}
	}
}

// TestPoolStepMatchesInline drives a step big enough to cross poolMinMACs,
// so the pooled branch is compared with the reference too.
func TestPoolStepMatchesInline(t *testing.T) {
	X, rows, targets, weights := onehotFixture(t, 600)
	cfg := Config{Hidden: []int{64}, Epochs: 1, Seed: 9, BatchSize: 512}
	if macs := len(rows.Cols) * 512 / rows.Len() * 64; macs < 2*poolMinMACs {
		t.Fatalf("fixture step is ~%d multiply-adds, too small to be pooled (poolMinMACs %d)", macs, poolMinMACs)
	}
	want := refTrain(t, X, targets, weights, cfg)
	cfg.Workers = 4
	got, err := Train(ctxbg, X, targets, weights, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, "pooled", got, want)
}

// TestSparseScoreMatchesDenseReference: scores from a row's entries equal
// the dense engine's exactly, through the sparse entry point and the dense
// adapter at every precision stamp, at batch sizes that reuse one pooled
// scratch and that cross a PredictBatch work item.
func TestSparseScoreMatchesDenseReference(t *testing.T) {
	X, rows, targets, weights := onehotFixture(t, 120)
	for _, hidden := range [][]int{nil, {16}, {32, 8}} {
		m, err := TrainRows(ctxbg, rows, targets, weights, Config{Hidden: hidden, Epochs: 2, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		scr := m.newScratch()
		for _, x := range X {
			refForward(m, x, scr)
			want = append(want, scr.output())
		}
		for _, size := range []int{1, 8, predictChunk + 1} {
			for lo := 0; lo+size <= len(X); lo += size {
				block := &sparse.Rows{}
				block.Reset(rows.Width)
				for i := lo; i < lo+size; i++ {
					cols, vals := rows.Row(i)
					for k, c := range cols {
						block.Add(int(c), vals[k])
					}
					block.EndRow()
				}
				got := make([]float64, size)
				m.PredictRowsInto(block, got)
				for i, g := range got {
					if g != want[lo+i] {
						t.Fatalf("hidden=%v batch=%d: row %d scored %x, dense reference %x", hidden, size, lo+i, g, want[lo+i])
					}
				}
				for i, g := range m.PredictBatch(X[lo : lo+size]) {
					if g != want[lo+i] {
						t.Fatalf("hidden=%v batch=%d: PredictBatch row %d scored %x, reference %x", hidden, size, lo+i, g, want[lo+i])
					}
				}
				for _, p := range []Precision{Float64, Float32, Int8} {
					m.PredictBatchQInto(X[lo:lo+size], p, got)
					for i, g := range got {
						if g != want[lo+i] {
							t.Fatalf("hidden=%v %v batch=%d: dense adapter row %d scored %x, reference %x", hidden, p, size, lo+i, g, want[lo+i])
						}
					}
				}
			}
		}
		// The single-row dense entry points ride the same engine.
		for i, x := range X[:20] {
			if got := m.PredictProba(x); got != want[i] {
				t.Fatalf("hidden=%v: PredictProba row %d = %x, reference %x", hidden, i, got, want[i])
			}
			cols, vals := rows.Row(i)
			if got := m.PredictFromHidden(m.Hidden(cols, vals)); hidden == nil && got != want[i] {
				t.Fatalf("logreg PredictFromHidden row %d = %x, reference %x", i, got, want[i])
			}
		}
	}
}

// TestTrainRejectsMalformedRows: a ragged dense matrix and a malformed
// sparse block are errors from Train, not index panics inside a pool
// goroutine.
func TestTrainRejectsMalformedRows(t *testing.T) {
	if _, err := Train(ctxbg, [][]float64{{1, 0}, {1}}, []float64{1, 0}, nil, Config{Workers: 4}); err == nil {
		t.Error("ragged dense rows accepted")
	}
	for name, rows := range map[string]*sparse.Rows{
		"column out of range": {Width: 3, Ptr: []int{0, 1}, Cols: []int32{3}, Vals: []float64{1}},
		"negative column":     {Width: 3, Ptr: []int{0, 1}, Cols: []int32{-1}, Vals: []float64{1}},
		"unsorted columns":    {Width: 3, Ptr: []int{0, 2}, Cols: []int32{2, 1}, Vals: []float64{1, 1}},
		"repeated column":     {Width: 3, Ptr: []int{0, 2}, Cols: []int32{1, 1}, Vals: []float64{1, 1}},
		"pointers decrease":   {Width: 3, Ptr: []int{0, 2, 1, 2}, Cols: []int32{0, 1}, Vals: []float64{1, 1}},
		"pointers overrun":    {Width: 3, Ptr: []int{0, 3}, Cols: []int32{0, 1}, Vals: []float64{1, 1}},
		"values short":        {Width: 3, Ptr: []int{0, 2}, Cols: []int32{0, 1}, Vals: []float64{1}},
		"zero width":          {Width: 0, Ptr: []int{0, 0}},
	} {
		targets := make([]float64, rows.Len())
		if _, err := TrainRows(ctxbg, rows, targets, nil, Config{Workers: 4}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := TrainRows(ctxbg, &sparse.Rows{}, nil, nil, Config{}); err == nil {
		t.Error("empty block accepted")
	}
}

// perUnitForward is forward with one pass over the input entries per output
// unit: the loop the blocked kernel replaced, kept as its reference.
func perUnitForward(m *MLP, cols []int32, vals []float64, s *scratch) {
	last := len(m.weights) - 1
	for l, W := range m.weights {
		out, bias, width := s.acts[l+1], m.biases[l], m.sizes[l]
		for o := range out {
			row := W[o*width : (o+1)*width]
			z := bias[o]
			for k, c := range cols {
				z += float64(row[c] * vals[k])
			}
			out[o] = activate(z, l == last)
		}
		cols, vals = m.allCols[:len(out)], out
	}
}

// TestBlockedForwardMatchesPerUnit: the four-unit forward kernel leaves every
// activation of every layer bit-identical to the per-unit loop, at widths
// that fill no block, exactly one, one and a remainder, and several, on rows
// with no entries, one, and the CT1 design's 28.
func TestBlockedForwardMatchesPerUnit(t *testing.T) {
	const width = 431
	rng := rand.New(rand.NewSource(5))
	type row struct {
		cols []int32
		vals []float64
	}
	var rows []row
	for _, nnz := range []int{0, 1, 28} {
		for range 4 {
			cols := make([]int32, 0, nnz)
			for _, c := range rng.Perm(width)[:nnz] {
				cols = append(cols, int32(c))
			}
			slices.Sort(cols)
			vals := make([]float64, nnz)
			for k := range vals {
				vals[k] = rng.NormFloat64()
			}
			rows = append(rows, row{cols, vals})
		}
	}
	for _, h := range []int{1, 3, 4, 5, 16, 17} {
		for _, hidden := range [][]int{{h}, {h, h}} {
			m, err := New(width, hidden, int64(h))
			if err != nil {
				t.Fatal(err)
			}
			for j := range m.params { // non-zero biases, so a dropped bias shows
				m.params[j] += 0.01 * rng.NormFloat64()
			}
			got, want := m.newScratch(), m.newScratch()
			for i, r := range rows {
				m.forward(r.cols, r.vals, got)
				perUnitForward(m, r.cols, r.vals, want)
				for l := 1; l < len(got.acts); l++ {
					for o := range got.acts[l] {
						if g, w := got.acts[l][o], want.acts[l][o]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("hidden=%v row %d (%d entries): layer %d unit %d = %x, per-unit %x", hidden, i, len(r.cols), l-1, o, g, w)
						}
					}
				}
			}
		}
	}
}

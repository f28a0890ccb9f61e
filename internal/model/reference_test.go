package model

import (
	"fmt"
	"math"
	"math/rand"
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

// refDotF32 / refDotI8 are the 4-way unrolled dense dots of the parent's
// quantized engine.
func refDotF32(w, x []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(w) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += w[i] * x[i]
		s1 += w[i+1] * x[i+1]
		s2 += w[i+2] * x[i+2]
		s3 += w[i+3] * x[i+3]
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(w); i++ {
		s += w[i] * x[i]
	}
	return s
}

func refDotI8(w []int8, x []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(w) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += float32(w[i]) * x[i]
		s1 += float32(w[i+1]) * x[i+1]
		s2 += float32(w[i+2]) * x[i+2]
		s3 += float32(w[i+3]) * x[i+3]
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(w); i++ {
		s += float32(w[i]) * x[i]
	}
	return s
}

// refQuantScore is the parent's qlayer.forward over one dense row, layer by
// layer, on the engine's own weight slabs.
func refQuantScore(e *qengine, x []float64) float64 {
	cur := make([]float32, len(x))
	for i, v := range x {
		cur[i] = float32(v)
	}
	for li := range e.layers {
		l := &e.layers[li]
		out := make([]float32, l.out)
		for j := range out {
			var z float32
			if l.wi != nil {
				z = refDotI8(l.wi[j*l.in:(j+1)*l.in], cur)*l.scale[j] + l.bias[j]
			} else {
				z = refDotF32(l.wf[j*l.in:(j+1)*l.in], cur) + l.bias[j]
			}
			switch {
			case li == len(e.layers)-1:
				out[j] = float32(sigmoid(float64(z)))
			case z > 0:
				out[j] = z
			default:
				out[j] = 0
			}
		}
		cur = out
	}
	return float64(cur[0])
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

// TestSparseScoreMatchesDenseReference: f64, f32 and int8 scores from a
// row's entries equal the dense engines' exactly, through the sparse entry
// point and the dense adapter, at batch sizes that stay inside one quantized
// row block and that cross it.
func TestSparseScoreMatchesDenseReference(t *testing.T) {
	X, rows, targets, weights := onehotFixture(t, 120)
	for _, hidden := range [][]int{nil, {16}, {32, 8}} {
		m, err := TrainRows(ctxbg, rows, targets, weights, Config{Hidden: hidden, Epochs: 2, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := map[Precision][]float64{}
		scr := m.newScratch()
		for _, x := range X {
			refForward(m, x, scr)
			want[Float64] = append(want[Float64], scr.output())
			want[Float32] = append(want[Float32], refQuantScore(m.engine(Float32), x))
			want[Int8] = append(want[Int8], refQuantScore(m.engine(Int8), x))
		}
		for _, size := range []int{1, 8, qBlockRows + 1} {
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
				for _, p := range []Precision{Float64, Float32, Int8} {
					m.PredictRowsInto(block, p, got)
					for i, g := range got {
						if g != want[p][lo+i] {
							t.Fatalf("hidden=%v %v batch=%d: row %d scored %x, dense reference %x", hidden, p, size, lo+i, g, want[p][lo+i])
						}
					}
					dense := m.PredictBatchQ(X[lo:lo+size], p)
					for i, g := range dense {
						if g != want[p][lo+i] {
							t.Fatalf("hidden=%v %v batch=%d: dense adapter row %d scored %x, reference %x", hidden, p, size, lo+i, g, want[p][lo+i])
						}
					}
				}
			}
		}
		// The single-row dense entry points ride the same engine.
		for i, x := range X[:20] {
			if got := m.PredictProba(x); got != want[Float64][i] {
				t.Fatalf("hidden=%v: PredictProba row %d = %x, reference %x", hidden, i, got, want[Float64][i])
			}
			cols, vals := rows.Row(i)
			if got := m.PredictFromHidden(m.Hidden(cols, vals)); hidden == nil && got != want[Float64][i] {
				t.Fatalf("logreg PredictFromHidden row %d = %x, reference %x", i, got, want[Float64][i])
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

// FuzzQuantSparseMatchesF64 is the quantized-vs-float64 differential fuzz:
// for random finite weights and sparse rows the f32 and int8 engines stay
// within Precision.Tolerance() of the float64 score. Magnitudes are bounded
// (|w| ≤ 1/4 below, 1/2 above, |x| ≤ 1, ≤ 16 entries, ≤ 4 hidden units) so
// the int8 rounding error provably fits: ≤ 0.065 in the logit, × ¼ slope.
func FuzzQuantSparseMatchesF64(f *testing.F) {
	f.Add(int64(1), uint16(431), uint8(0), []byte{3, 200, 40, 255, 9, 1})
	f.Add(int64(2), uint16(7), uint8(4), []byte{0, 0, 0, 0})
	f.Add(int64(3), uint16(64), uint8(2), []byte{})
	f.Add(int64(4), uint16(1), uint8(1), []byte{0, 128})
	f.Fuzz(func(t *testing.T, seed int64, width uint16, hidden uint8, entries []byte) {
		inDim := int(width)%600 + 1
		var arch []int
		if h := int(hidden) % 5; h > 0 {
			arch = []int{h}
		}
		m, err := New(inDim, arch, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for l := range m.weights {
			bound := 0.25 * float64(l+1)
			for j := range m.weights[l] {
				m.weights[l][j] = (rng.Float64()*2 - 1) * bound
			}
			for j := range m.biases[l] {
				m.biases[l][j] = (rng.Float64()*2 - 1) * 0.25
			}
		}
		// entries are (column gap, value) byte pairs; a zero gap after the
		// first entry starts the next row, so rows stay strictly ascending.
		rows := &sparse.Rows{}
		rows.Reset(inDim)
		col, n := -1, 0
		for k := 0; k+1 < len(entries); k += 2 {
			gap := int(entries[k])
			if (gap == 0 && col >= 0) || col+max(gap, 1) >= inDim || n == 16 {
				rows.EndRow()
				col, n = -1, 0
				continue
			}
			col += max(gap, 1)
			rows.Add(col, float64(int(entries[k+1])-128)/128)
			n++
		}
		rows.EndRow()
		if err := rows.Validate(); err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, rows.Len())
		got := make([]float64, rows.Len())
		m.PredictRowsInto(rows, Float64, ref)
		for _, p := range []Precision{Float32, Int8} {
			tol, _ := p.Tolerance()
			m.PredictRowsInto(rows, p, got)
			for i := range ref {
				if d := math.Abs(got[i] - ref[i]); !(d <= tol) {
					cols, vals := rows.Row(i)
					t.Fatalf("%v row %d (cols %v vals %v): |%v - %v| = %g > %g", p, i, cols, vals, got[i], ref[i], d, tol)
				}
			}
		}
	})
}

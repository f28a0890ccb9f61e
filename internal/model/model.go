// Package model implements the discriminative end models the paper's TFX
// pipelines train (§6.3): logistic regression and small fully-connected
// neural networks, trained with a noise-aware cross-entropy loss that
// accepts probabilistic labels from the weak-supervision step, plus the
// machinery the fusion architectures need (access to pre-prediction-layer
// activations, linear projections).
//
// Every engine reads its input as sparse rows (internal/sparse): a layer
// iterates its input's entries in ascending column order — the first layer a
// design row's non-zeros, later layers every column of the activations
// below. A skipped zero would only have added ±0, so results are
// bit-identical to a dense walk (only a non-finite weight, Inf·0, could
// differ). The [][]float64 entry points convert and delegate.
//
// Training is data-parallel and allocation-lean: every minibatch is split
// into a fixed number of gradient shards processed by up to Config.Workers
// goroutines, each accumulating into preallocated buffers (see train.go).
// Because the shard partition and the shard merge order are independent of
// the worker count, training is bit-for-bit deterministic for a given seed
// no matter how many workers run.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"crossmodal/internal/mapreduce"
	"crossmodal/internal/sparse"
)

// Config controls training.
type Config struct {
	// Hidden lists hidden-layer widths; empty trains logistic regression.
	Hidden []int
	// Epochs is the number of passes over the training data (default 8).
	Epochs int
	// BatchSize is the minibatch size (default 32).
	BatchSize int
	// LearningRate is Adam's step size (default 0.01).
	LearningRate float64
	// L2 is the weight-decay coefficient (default 1e-4).
	L2 float64
	// Seed drives initialization and shuffling.
	Seed int64
	// PositiveWeight scales the loss of positive-leaning targets to
	// counter class imbalance; <= 0 means 1 (unweighted).
	PositiveWeight float64
	// Workers shards each minibatch across goroutines; 0 or negative
	// means GOMAXPROCS, 1 is serial. Results are bit-for-bit identical
	// for any worker count (gradients merge in fixed shard order).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.PositiveWeight <= 0 {
		c.PositiveWeight = 1
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	return c
}

// MLP is a feed-forward binary classifier: zero or more ReLU hidden layers
// followed by a sigmoid output unit. With no hidden layers it is logistic
// regression.
//
// All parameters live in one contiguous []float64 backing array laid out
// layer by layer as [weights (out×in, row-major) | biases (out)], so the
// inner dot-product loops walk memory sequentially and optimizer updates
// are single flat sweeps. weights[l] and biases[l] are views into it.
type MLP struct {
	inDim   int
	sizes   []int       // layer widths: [inDim, hidden..., 1]
	params  []float64   // flat backing array for all weights and biases
	weights [][]float64 // weights[l]: flat out×in view, row-major
	biases  [][]float64 // biases[l]: view of length out
	wOff    []int       // offset of weights[l] within params
	bOff    []int       // offset of biases[l] within params
	allCols []int32     // 0..max layer width: the columns of a dense activation row
	workers int         // preferred batch-op worker count (0 = GOMAXPROCS)
	// scratches recycles PredictRowsInto's forward buffers. A pointer, so
	// copying the MLP value (GobDecode does) shares rather than copies it.
	scratches *sync.Pool
}

// New initializes an untrained network for inDim inputs.
func New(inDim int, hidden []int, seed int64) (*MLP, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("model: input dimension must be positive, got %d", inDim)
	}
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("model: hidden width must be positive, got %d", h)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{inDim: inDim, scratches: new(sync.Pool)}
	m.sizes = append(append([]int{inDim}, hidden...), 1)
	total := 0
	for l := 0; l+1 < len(m.sizes); l++ {
		total += m.sizes[l]*m.sizes[l+1] + m.sizes[l+1]
	}
	m.params = make([]float64, total)
	off := 0
	for l := 0; l+1 < len(m.sizes); l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		m.wOff = append(m.wOff, off)
		W := m.params[off : off+in*out]
		off += in * out
		m.bOff = append(m.bOff, off)
		b := m.params[off : off+out]
		off += out
		scale := math.Sqrt(2 / float64(in))
		for j := range W {
			W[j] = rng.NormFloat64() * scale
		}
		m.weights = append(m.weights, W)
		m.biases = append(m.biases, b)
		for len(m.allCols) < out {
			m.allCols = append(m.allCols, int32(len(m.allCols)))
		}
	}
	return m, nil
}

// InDim returns the expected input width.
func (m *MLP) InDim() int { return m.inDim }

// HiddenDim returns the width of the activation vector feeding the final
// prediction layer: the last hidden width, or the input width for logistic
// regression.
func (m *MLP) HiddenDim() int {
	if len(m.weights) == 1 {
		return m.inDim
	}
	return m.sizes[len(m.sizes)-2]
}

// Params returns a copy of all parameters in their contiguous storage order
// (per layer: weights row-major, then biases) — for checkpointing and for
// exact-equality comparisons in tests.
func (m *MLP) Params() []float64 {
	return append([]float64(nil), m.params...)
}

// defaultWorkers is the worker count a zero Config.Workers resolves to.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// scratch holds one goroutine's preallocated forward/backward buffers: the
// per-layer activations and backprop deltas live in a single flat arena so a
// steady-state training step allocates nothing per sample.
type scratch struct {
	acts   [][]float64 // acts[l+1] is layer l's output; acts[0] is unused (the input is sparse)
	deltas [][]float64 // deltas[l] is dL/dz at layer l's output
}

func (m *MLP) newScratch() *scratch {
	L := len(m.weights)
	s := &scratch{acts: make([][]float64, L+1), deltas: make([][]float64, L)}
	n := 0
	for l := 0; l < L; l++ {
		n += 2 * m.sizes[l+1]
	}
	arena := make([]float64, n)
	off := 0
	for l := 0; l < L; l++ {
		out := m.sizes[l+1]
		s.acts[l+1] = arena[off : off+out]
		off += out
		s.deltas[l] = arena[off : off+out]
		off += out
	}
	return s
}

// output returns the sigmoid output of the last forward pass.
func (s *scratch) output() float64 {
	return s.acts[len(s.acts)-1][0]
}

// forward computes all layer activations into s from one input row's
// entries (cols ascending and below inDim — see sparse.Rows.Validate).
//
// Each layer computes four output units per pass over its input entries, so
// the four sums are independent add chains rather than one serial chain per
// unit; the units left over take one pass each. Every unit still sums
// bias + Σ_k W[o][c_k]·v_k in entry order, and each product is rounded on
// its own (float64(w*v)) so no platform fuses it into the add: the bits are
// those of a per-unit loop.
func (m *MLP) forward(cols []int32, vals []float64, s *scratch) {
	last := len(m.weights) - 1
	for l, W := range m.weights {
		out, bias, width, head := s.acts[l+1], m.biases[l], m.sizes[l], l == last
		o := 0
		for ; o+4 <= len(out); o += 4 {
			r0 := W[o*width : (o+1)*width]
			r1 := W[(o+1)*width : (o+2)*width]
			r2 := W[(o+2)*width : (o+3)*width]
			r3 := W[(o+3)*width : (o+4)*width]
			z0, z1, z2, z3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			for k, c := range cols {
				v := vals[k]
				z0 += float64(r0[c] * v)
				z1 += float64(r1[c] * v)
				z2 += float64(r2[c] * v)
				z3 += float64(r3[c] * v)
			}
			out[o], out[o+1], out[o+2], out[o+3] = activate(z0, head), activate(z1, head), activate(z2, head), activate(z3, head)
		}
		for ; o < len(out); o++ {
			row := W[o*width : (o+1)*width]
			z := bias[o]
			for k, c := range cols {
				z += float64(row[c] * vals[k])
			}
			out[o] = activate(z, head)
		}
		cols, vals = m.allCols[:len(out)], out // the next layer reads every column
	}
}

// activate is a unit's output for pre-activation z: the sigmoid on the head
// layer, ReLU below it (buffers are reused, so ReLU writes its zero).
func activate(z float64, head bool) float64 {
	switch {
	case head:
		return sigmoid(z)
	case z > 0:
		return z
	default:
		return 0
	}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// PredictRowsInto scores every row of rows into out (len(out) == rows.Len())
// serially on the exact float64 forward pass; its buffers are pooled, so a
// steady-state call allocates nothing. rows must be valid
// (sparse.Rows.Validate); blocks built by the vectorizer or AddDense are.
// Panics on a shape mismatch.
func (m *MLP) PredictRowsInto(rows *sparse.Rows, out []float64) {
	if rows.Width != m.inDim {
		panic(fmt.Sprintf("model: input width %d, want %d", rows.Width, m.inDim))
	}
	if len(out) != rows.Len() {
		panic(fmt.Sprintf("model: PredictRowsInto out length %d, want %d", len(out), rows.Len()))
	}
	s, _ := m.scratches.Get().(*scratch)
	if s == nil {
		s = m.newScratch()
	}
	for i := range out {
		cols, vals := rows.Row(i)
		m.forward(cols, vals, s)
		out[i] = s.output()
	}
	m.scratches.Put(s)
}

// denseBlocks recycles the CSR blocks the dense adapters convert into.
var denseBlocks = sync.Pool{New: func() any { return new(sparse.Rows) }}

// predictDense is the dense adapter: X converts, zeros skipped, into a
// pooled block and scores through PredictRowsInto. A row of the wrong width
// panics — a programming error.
func (m *MLP) predictDense(X [][]float64, out []float64) {
	rows := denseBlocks.Get().(*sparse.Rows)
	rows.Reset(m.inDim)
	for _, x := range X {
		rows.AddDense(x)
	}
	m.PredictRowsInto(rows, out)
	denseBlocks.Put(rows)
}

// PredictProba returns P(y = +1 | x). It panics if x has the wrong width —
// a programming error.
func (m *MLP) PredictProba(x []float64) float64 {
	var out [1]float64
	m.predictDense([][]float64{x}, out[:])
	return out[0]
}

// predictChunk is the batch size one PredictBatch work item scores with a
// shared scratch; it amortizes scratch setup without starving the workers.
const predictChunk = 64

// PredictBatch returns P(y = +1) for every row, sharding the batch across
// the model's configured workers.
func (m *MLP) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	mapreduce.ForChunks(mapreduce.Config{Workers: m.workers}, len(X), predictChunk, func(lo, hi int) {
		m.predictDense(X[lo:hi], out[lo:hi])
	})
	return out
}

// Hidden returns the activation vector feeding the final prediction layer
// for one input row's entries (the "output prior to the final softmax" the
// DeViSE and intermediate-fusion architectures consume, paper §5). For
// logistic regression this is the input itself, as a dense row.
func (m *MLP) Hidden(cols []int32, vals []float64) []float64 {
	if len(m.weights) == 1 {
		x := make([]float64, m.inDim)
		for k, c := range cols {
			x[c] = vals[k]
		}
		return x
	}
	s := m.newScratch()
	m.forward(cols, vals, s)
	return s.acts[len(s.acts)-2]
}

// PredictFromHidden applies only the final prediction layer to a hidden
// activation vector — used at DeViSE inference, where the frozen old-
// modality head scores projected new-modality embeddings.
func (m *MLP) PredictFromHidden(h []float64) float64 {
	l := len(m.weights) - 1
	if l == 0 {
		return m.PredictProba(h) // logistic regression: the head is the first layer
	}
	z := m.biases[l][0]
	for i, w := range m.weights[l][:m.sizes[l]] {
		z += w * h[i]
	}
	return sigmoid(z)
}

// Precision is a serving-precision stamp, carried by early-fusion artifacts
// (fusion.EarlyModel.SetServePrecision) so every artifact written with one
// still loads. It selects nothing: every precision scores on the exact
// float64 path.
type Precision int

const (
	Float64 Precision = iota
	Float32
	Int8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case Float32:
		return "f32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Valid reports whether p is a known precision.
func (p Precision) Valid() bool { return p >= Float64 && p <= Int8 }

// Tolerance is the score divergence from float64 a check may allow for a
// p-stamped model, and the distance from 0.5 beyond which its decisions must
// match. Scores are exact at every precision, so any check passes.
func (p Precision) Tolerance() (tol, margin float64) {
	switch p {
	case Float32:
		return 1e-3, 0
	case Int8:
		return 5e-2, 5e-2
	default:
		return 0, 0
	}
}

// PredictBatchQInto scores dense rows X into out (len(out) == len(X)) on the
// float64 path, whatever p is: the dense adapter over PredictRowsInto,
// allocation-free in steady state. Panics on a shape mismatch.
func (m *MLP) PredictBatchQInto(X [][]float64, p Precision, out []float64) {
	if len(out) != len(X) {
		panic(fmt.Sprintf("model: PredictBatchQInto out length %d, want %d", len(out), len(X)))
	}
	m.predictDense(X, out)
}

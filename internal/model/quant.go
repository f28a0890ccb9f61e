package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"crossmodal/internal/sparse"
)

// Quantized inference: the serving hot path runs the forward pass in
// reduced precision over contiguous per-layer weight slabs instead of the
// float64 reference path. Weights are converted once, lazily, on first use
// (float32 copies, or int8 with per-output-row symmetric scales and
// float32 accumulation); the batch is processed in row blocks sized so one
// weight slab and one input block stay cache-resident together. Training,
// checkpointing, and the golden pipeline keep the float64 path — its
// bit-for-bit reproducibility is load-bearing there — while serving trades
// ~1e-7 (float32) or bounded ~1e-2 (int8) score divergence for throughput.

// Precision selects the arithmetic of the quantized forward pass.
type Precision int

const (
	// Float64 is the reference path (PredictBatch) — exact, and the only
	// precision training and the golden pipeline ever see.
	Float64 Precision = iota
	// Float32 runs blocked float32 GEMM over float32 weight slabs.
	Float32
	// Int8 stores weights as int8 with one symmetric scale per output row
	// and accumulates in float32.
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

// ParsePrecision maps the CLI/wire names to precisions.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64", "off":
		return Float64, nil
	case "f32", "float32":
		return Float32, nil
	case "int8":
		return Int8, nil
	default:
		return 0, fmt.Errorf("model: unknown precision %q (want f64, f32, or int8)", s)
	}
}

// Valid reports whether p is a known precision.
func (p Precision) Valid() bool { return p >= Float64 && p <= Int8 }

// Tolerance is the precision's divergence contract against the float64
// reference, the bound both the property tests and the serving registry's
// canary gate enforce: |quantized − float64| stays within tol, and the
// decision at 0.5 matches wherever the reference score has at least margin
// distance from 0.5 (margin 0 means decisions must match unconditionally).
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

// qBlockRows is the batch-block height: one block of inputs
// (qBlockRows × inDim float32) plus one layer's weight slab fit in L1/L2
// together, so each weight row loaded streams across the whole block.
const qBlockRows = 32

// qlayer is one layer's inference-ready parameters: weights flattened
// out×in row-major (the transposed layout a row-major X·Wᵀ GEMM wants),
// biases in float32, and for int8 the per-output-row dequantization scale.
type qlayer struct {
	in, out int
	wf      []float32 // Float32 engines
	wi      []int8    // Int8 engines
	scale   []float32 // Int8: dequant scale per output row
	bias    []float32
}

// qscratch is one forward pass's reusable arena: the block's input entries
// in float32 (grown monotonically) and two ping-pong activation blocks.
type qscratch struct {
	xin  []float32 // the input block's values, entry for entry
	a, b []float32 // qBlockRows × max layer width
}

// qengine is a built quantized network for one precision. Engines are
// immutable after construction and safe for concurrent use; scratch arenas
// cycle through a pool so steady-state scoring allocates nothing.
type qengine struct {
	prec    Precision
	layers  []qlayer
	allCols []int32 // the columns of a dense activation row (MLP.allCols)
	scratch sync.Pool
}

// quantState holds an MLP's lazily built engines behind a pointer, so
// copying the MLP value (GobDecode does) shares rather than tears it.
type quantState struct {
	mu  sync.Mutex
	eng [Int8 + 1]atomic.Pointer[qengine]
}

func newQuantState() *quantState { return &quantState{} }

// engine returns the model's engine for p, building it on first use. The
// engine snapshots the parameters at build time: models are trained first
// and served after (Train constructs a fresh MLP), so a snapshot taken at
// first predict is the final parameters.
func (m *MLP) engine(p Precision) *qengine {
	qs := m.quant
	if e := qs.eng[p].Load(); e != nil {
		return e
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if e := qs.eng[p].Load(); e != nil {
		return e
	}
	e := m.buildEngine(p)
	qs.eng[p].Store(e)
	return e
}

// buildEngine converts the float64 parameters into precision-p slabs.
func (m *MLP) buildEngine(p Precision) *qengine {
	e := &qengine{prec: p, allCols: m.allCols, layers: make([]qlayer, len(m.weights))}
	maxW := 0
	for l := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		if out > maxW {
			maxW = out
		}
		ql := qlayer{in: in, out: out, bias: make([]float32, out)}
		for j, bv := range m.biases[l] {
			ql.bias[j] = float32(bv)
		}
		W := m.weights[l]
		switch p {
		case Float32:
			ql.wf = make([]float32, len(W))
			for i, w := range W {
				ql.wf[i] = float32(w)
			}
		case Int8:
			ql.wi = make([]int8, len(W))
			ql.scale = make([]float32, out)
			for j := 0; j < out; j++ {
				row := W[j*in : (j+1)*in]
				maxAbs := 0.0
				for _, w := range row {
					if a := math.Abs(w); a > maxAbs {
						maxAbs = a
					}
				}
				if maxAbs == 0 {
					ql.scale[j] = 1 // all-zero row: any scale dequantizes zeros
					continue
				}
				s := maxAbs / 127
				ql.scale[j] = float32(s)
				for i, w := range row {
					ql.wi[j*in+i] = int8(math.RoundToEven(w / s))
				}
			}
		}
		e.layers[l] = ql
	}
	e.scratch = sync.Pool{New: func() any {
		return &qscratch{a: make([]float32, qBlockRows*maxW), b: make([]float32, qBlockRows*maxW)}
	}}
	return e
}

// PredictBatchQ returns P(y = +1) for every row through the precision-p
// engine. Float64 falls back to the reference PredictBatch.
func (m *MLP) PredictBatchQ(X [][]float64, p Precision) []float64 {
	if p == Float64 {
		return m.PredictBatch(X)
	}
	out := make([]float64, len(X))
	m.PredictBatchQInto(X, p, out)
	return out
}

// PredictBatchQInto scores dense rows X into out (len(out) == len(X))
// through the precision-p engine without allocating in steady state: the
// adapter over PredictRowsInto. p must be Float32 or Int8 — callers needing
// the float64 path use PredictBatch. Panics on misuse, like PredictProba on
// a bad width.
func (m *MLP) PredictBatchQInto(X [][]float64, p Precision, out []float64) {
	if p != Float32 && p != Int8 {
		panic(fmt.Sprintf("model: PredictBatchQInto precision %v, want f32 or int8", p))
	}
	if len(out) != len(X) {
		panic(fmt.Sprintf("model: PredictBatchQInto out length %d, want %d", len(out), len(X)))
	}
	m.predictDense(X, p, out)
}

// predict scores rows into out, one row block at a time.
func (e *qengine) predict(rows *sparse.Rows, out []float64) {
	s := e.scratch.Get().(*qscratch)
	for lo := 0; lo < len(out); lo += qBlockRows {
		hi := min(lo+qBlockRows, len(out))
		e.forwardBlock(rows.Ptr[lo:hi+1], rows, s, out[lo:hi])
	}
	e.scratch.Put(s)
}

// forwardBlock runs the rows delimited by ptr through every layer. The
// block's entry values are narrowed into the float32 arena once; each layer
// then streams its weight slab across the whole block (weight row hot in
// cache while the block's rows consume it) into the ping-pong activation
// arenas — the first layer over each row's entries, the later ones over
// every column of the activations below.
func (e *qengine) forwardBlock(ptr []int, rows *sparse.Rows, s *qscratch, out []float64) {
	base := ptr[0]
	s.xin = s.xin[:0]
	for _, v := range rows.Vals[base:ptr[len(out)]] {
		s.xin = append(s.xin, float32(v))
	}
	cur, cols := s.xin, rows.Cols[base:]
	ping := true // next destination arena: a, then b, alternating
	last := len(e.layers) - 1
	for l := range e.layers {
		dst := s.b
		if ping {
			dst = s.a
		}
		e.layers[l].forward(ptr, cols, cur, len(out), dst, l == last)
		cur, cols, ptr, ping = dst, e.allCols, nil, !ping
	}
	// The final layer has width 1: cur holds one probability per row.
	for r := range out {
		out[r] = float64(cur[r])
	}
}

// forward computes one layer over a block of rows: out[r*l.out+j] =
// act(Σ_i x_r[i]·W[j,i] + bias[j]), sigmoid on the final layer, ReLU
// elsewhere. With ptr set, row r's input is the entries ptr[r]-ptr[0] up to
// ptr[r+1]-ptr[0] of cols and x; with ptr nil it is every column of the
// dense row x[r*l.in:(r+1)*l.in]. The j-outer loop keeps one weight row resident
// while it is dotted against every row of the block — the cache-blocking
// this engine exists for.
func (l *qlayer) forward(ptr []int, cols []int32, x []float32, rows int, out []float32, final bool) {
	for j := 0; j < l.out; j++ {
		bias := l.bias[j]
		var wf []float32
		var wi []int8
		var scale float32
		if l.wi != nil {
			wi = l.wi[j*l.in : (j+1)*l.in]
			scale = l.scale[j]
		} else {
			wf = l.wf[j*l.in : (j+1)*l.in]
		}
		for r := 0; r < rows; r++ {
			c, lo, hi := cols, r*l.in, (r+1)*l.in
			if ptr != nil {
				lo, hi = ptr[r]-ptr[0], ptr[r+1]-ptr[0]
				c = cols[lo:]
			}
			c, xr := c[:hi-lo], x[lo:hi]
			var z float32
			if wi != nil {
				z = dot(wi, c, xr)*scale + bias
			} else {
				z = dot(wf, c, xr) + bias
			}
			idx := r*l.out + j
			switch {
			case final:
				out[idx] = float32(sigmoid(float64(z)))
			case z > 0:
				out[idx] = z
			default:
				out[idx] = 0
			}
		}
	}
}

// dot dots weight row w against the entries (cols ascending, x) in the
// accumulation order of a 4-way unrolled dense dot: an entry whose column is
// below len(w)&^3 adds into lane col&3, the lanes are summed, then the tail
// columns add in order — so skipping zeros (±0 terms) is bit-identical. For
// int8 weights the caller applies the row's dequantization scale once.
func dot[W float32 | int8](w []W, cols []int32, x []float32) float32 {
	var lane [4]float32
	n := int32(len(w) &^ 3)
	k := 0
	for ; k < len(cols) && cols[k] < n; k++ {
		lane[cols[k]&3] += float32(w[cols[k]]) * x[k]
	}
	s := lane[0] + lane[1] + lane[2] + lane[3]
	for ; k < len(cols); k++ {
		s += float32(w[cols[k]]) * x[k]
	}
	return s
}

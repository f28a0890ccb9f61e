package feature

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"crossmodal/internal/mapreduce"
	"crossmodal/internal/sparse"
)

// Vocabulary maps the category strings observed for one categorical feature
// to dense one-hot indices. Categories outside the vocabulary map to a shared
// out-of-vocabulary slot so that inference-time inputs never change the
// encoded width.
type Vocabulary struct {
	index map[string]int
	words []string
}

// NewVocabulary builds a vocabulary from the given categories, deduplicated
// and sorted for determinism.
func NewVocabulary(categories []string) *Vocabulary {
	uniq := make(map[string]bool, len(categories))
	for _, c := range categories {
		uniq[c] = true
	}
	words := make([]string, 0, len(uniq))
	for c := range uniq {
		words = append(words, c)
	}
	sort.Strings(words)
	v := &Vocabulary{index: make(map[string]int, len(words)), words: words}
	for i, w := range words {
		v.index[w] = i
	}
	return v
}

// Len returns the number of in-vocabulary categories.
func (v *Vocabulary) Len() int { return len(v.words) }

// Index returns the slot for category c and whether c is in-vocabulary.
func (v *Vocabulary) Index(c string) (int, bool) {
	i, ok := v.index[c]
	return i, ok
}

// Words returns the vocabulary contents in slot order.
func (v *Vocabulary) Words() []string {
	return append([]string(nil), v.words...)
}

// numericStats holds standardization parameters for one numeric feature.
type numericStats struct {
	mean, std float64
}

// Vectorizer converts Vectors into design rows for model training:
// categorical features one-hot (multi-hot) encode against a fitted
// vocabulary plus an OOV slot and a missing indicator; numeric features are
// standardized and paired with a missing indicator; embedding features are
// copied through. Rows are emitted sparse (Encode, TransformSparse) — a
// one-hot row is mostly zeros — and the dense Transform* forms scatter the
// same entries. Fit on training data once, then transform anywhere.
type Vectorizer struct {
	schema  *Schema
	vocabs  map[string]*Vocabulary
	stats   map[string]numericStats
	enc     []featureEnc // per schema position: what appendRow needs, no map lookups
	offsets []int
	width   int
	maxVoc  int
}

// featureEnc is one feature's fitted encoding, resolved once by layout.
type featureEnc struct {
	kind Kind
	dim  int
	voc  *Vocabulary
	numericStats
}

// VectorizerOption configures FitVectorizer.
type VectorizerOption func(*Vectorizer)

// WithMaxVocabulary caps each categorical vocabulary at n most-frequent
// categories (ties broken lexicographically). n <= 0 means unlimited.
func WithMaxVocabulary(n int) VectorizerOption {
	return func(v *Vectorizer) { v.maxVoc = n }
}

// colMap caches which column of a source schema holds each feature of a
// target schema (-1: absent). Features match by name; the map is rebuilt only
// when either schema changes, so a batch resolves its columns once.
type colMap struct {
	to, from *Schema
	idx      []int
}

func (m *colMap) resolve(to, from *Schema) []int {
	if m.to != to || m.from != from {
		m.to, m.from, m.idx = to, from, m.idx[:0]
		for i := range to.defs {
			j, ok := from.index[to.defs[i].Name]
			if !ok {
				j = -1
			}
			m.idx = append(m.idx, j)
		}
	}
	return m.idx
}

// FitVectorizer learns vocabularies and numeric standardization statistics
// from the training vectors in one pass; vectors may carry any schema
// (features are matched by name).
func FitVectorizer(schema *Schema, train []*Vector, opts ...VectorizerOption) *Vectorizer {
	vz := &Vectorizer{
		schema: schema,
		vocabs: make(map[string]*Vocabulary),
		stats:  make(map[string]numericStats),
	}
	for _, opt := range opts {
		opt(vz)
	}
	type acc struct {
		counts     map[string]int
		sum, sumSq float64
		n          int
	}
	accs := make([]acc, schema.Len())
	for i := range accs {
		if schema.defs[i].Kind == Categorical {
			accs[i].counts = make(map[string]int)
		}
	}
	var cm colMap
	for _, v := range train {
		for i, j := range cm.resolve(schema, v.schema) {
			if j < 0 || !v.Present(j) {
				continue
			}
			a := &accs[i]
			switch schema.defs[i].Kind {
			case Categorical:
				for _, c := range v.Categories(j) {
					a.counts[c]++
				}
			case Numeric:
				x := v.Num(j)
				a.sum += x
				a.sumSq += x * x
				a.n++
			}
		}
	}
	for i, a := range accs {
		d := schema.Def(i)
		switch d.Kind {
		case Categorical:
			vz.vocabs[d.Name] = fitVocab(a.counts, vz.maxVoc)
		case Numeric:
			st := numericStats{mean: 0, std: 1}
			if a.n > 0 {
				st.mean = a.sum / float64(a.n)
				variance := a.sumSq/float64(a.n) - st.mean*st.mean
				if variance > 1e-12 {
					st.std = math.Sqrt(variance)
				}
			}
			vz.stats[d.Name] = st
		}
	}
	vz.layout()
	return vz
}

func fitVocab(counts map[string]int, maxVoc int) *Vocabulary {
	words := make([]string, 0, len(counts))
	for c := range counts {
		words = append(words, c)
	}
	sort.Slice(words, func(i, j int) bool {
		if counts[words[i]] != counts[words[j]] {
			return counts[words[i]] > counts[words[j]]
		}
		return words[i] < words[j]
	})
	if maxVoc > 0 && len(words) > maxVoc {
		words = words[:maxVoc]
	}
	return NewVocabulary(words)
}

// layout computes each feature's offset into the row and its encoding.
func (vz *Vectorizer) layout() {
	vz.offsets = make([]int, vz.schema.Len()+1)
	vz.enc = make([]featureEnc, vz.schema.Len())
	off := 0
	for i := 0; i < vz.schema.Len(); i++ {
		vz.offsets[i] = off
		d := vz.schema.Def(i)
		vz.enc[i] = featureEnc{kind: d.Kind, dim: d.Dim, voc: vz.vocabs[d.Name], numericStats: vz.stats[d.Name]}
		switch d.Kind {
		case Categorical:
			// one slot per vocab word + OOV slot + missing indicator
			off += vz.vocabs[d.Name].Len() + 2
		case Numeric:
			// standardized value + missing indicator
			off += 2
		case Embedding:
			// raw vector + missing indicator
			off += d.Dim + 1
		}
	}
	vz.offsets[vz.schema.Len()] = off
	vz.width = off
}

// Width returns the row length produced by Transform.
func (vz *Vectorizer) Width() int { return vz.width }

// Schema returns the schema the vectorizer was fitted on.
func (vz *Vectorizer) Schema() *Schema { return vz.schema }

// FeatureSpan returns the [start, end) dense-row columns occupied by the
// named feature, and false if the feature is unknown.
func (vz *Vectorizer) FeatureSpan(name string) (start, end int, ok bool) {
	i, found := vz.schema.Index(name)
	if !found {
		return 0, 0, false
	}
	return vz.offsets[i], vz.offsets[i+1], true
}

// Encoder is a reusable block of encoded rows for one vectorizer, plus the
// source-schema column map of the last vector it encoded. Not safe for
// concurrent use; the zero value is ready.
type Encoder struct {
	sparse.Rows
	src colMap
}

// Encode replaces e's rows with the encodings of vecs, which may carry any
// schema (features are matched by name). A warm encoder allocates nothing.
func (vz *Vectorizer) Encode(e *Encoder, vecs []*Vector) {
	e.Reset(vz.width)
	for _, v := range vecs {
		vz.appendRow(e, v)
	}
}

// appendRow encodes v as one more row of e: exactly the non-zeros of the
// dense encoding, columns ascending — a feature's category slots sorted and
// de-duplicated, its OOV slot at most once.
func (vz *Vectorizer) appendRow(e *Encoder, v *Vector) {
	src := e.src.resolve(vz.schema, v.schema)
	for i := range vz.enc {
		f, off := &vz.enc[i], vz.offsets[i]
		j := src[i] // < 0: absent from v's schema
		missing := j < 0 || !v.Present(j)
		switch f.kind {
		case Categorical:
			if missing {
				e.Add(off+f.voc.Len()+1, 1)
				continue
			}
			from := len(e.Cols)
			for _, c := range v.Categories(j) {
				slot, ok := f.voc.index[c]
				if !ok {
					slot = f.voc.Len() // OOV
				}
				e.Cols = append(e.Cols, int32(off+slot))
			}
			e.OneHot(from)
		case Numeric:
			if missing {
				e.Add(off+1, 1)
				continue
			}
			e.Add(off, (v.Num(j)-f.mean)/f.std)
		case Embedding:
			if missing || len(v.Vec(j)) != f.dim {
				e.Add(off+f.dim, 1)
				continue
			}
			for k, x := range v.Vec(j) {
				e.Add(off+k, x)
			}
		}
	}
	e.EndRow()
}

// transformChunk is how many rows one batch-transform work item encodes; it
// amortizes scheduling without starving the workers.
const transformChunk = 128

// TransformSparse encodes a batch into one CSR block, sharding it across
// workers (0 means GOMAXPROCS, 1 is serial). Chunks encode independently
// and are concatenated in order, so the result is identical for any count.
func (vz *Vectorizer) TransformSparse(vectors []*Vector, workers int) *sparse.Rows {
	blocks := make([]sparse.Rows, (len(vectors)+transformChunk-1)/transformChunk)
	mapreduce.ForChunks(mapreduce.Config{Workers: workers}, len(vectors), transformChunk, func(lo, hi int) {
		e := encoders.Get().(*Encoder) // grown once, so each chunk keeps an exact-size copy
		vz.Encode(e, vectors[lo:hi])
		b := &blocks[lo/transformChunk]
		b.Reset(vz.width)
		b.Append(&e.Rows)
		encoders.Put(e)
	})
	nnz := 0
	for i := range blocks {
		nnz += len(blocks[i].Cols)
	}
	out := &sparse.Rows{Ptr: make([]int, 0, len(vectors)+1), Cols: make([]int32, 0, nnz), Vals: make([]float64, 0, nnz)}
	out.Reset(vz.width)
	for i := range blocks {
		out.Append(&blocks[i])
	}
	return out
}

// encoders recycles the scratch encoders of the dense adapters.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// Transform encodes v (which may carry any schema; features are matched by
// name) into a dense row of length Width.
func (vz *Vectorizer) Transform(v *Vector) []float64 {
	row := make([]float64, vz.width)
	vz.TransformInto(v, row)
	return row
}

// TransformInto encodes v into row, which must have length Width: the dense
// adapter over appendRow. It panics if the row length is wrong, since that
// is a programming error.
func (vz *Vectorizer) TransformInto(v *Vector, row []float64) {
	if len(row) != vz.width {
		panic(fmt.Sprintf("feature: TransformInto row length %d, want %d", len(row), vz.width))
	}
	clear(row)
	e := encoders.Get().(*Encoder)
	e.Reset(vz.width)
	vz.appendRow(e, v)
	e.Scatter(0, row)
	encoders.Put(e)
}

// TransformAllWorkers encodes a batch of vectors into a row-major matrix,
// sharding the batch across workers (0 means GOMAXPROCS, 1 is serial). Rows are written into disjoint slices
// of one flat backing array, so the result is identical for any count.
func (vz *Vectorizer) TransformAllWorkers(vectors []*Vector, workers int) [][]float64 {
	rows := make([][]float64, len(vectors))
	flat := make([]float64, len(vectors)*vz.width)
	mapreduce.ForChunks(mapreduce.Config{Workers: workers}, len(vectors), transformChunk, func(lo, hi int) {
		e := encoders.Get().(*Encoder)
		vz.Encode(e, vectors[lo:hi])
		for i := lo; i < hi; i++ {
			rows[i] = flat[i*vz.width : (i+1)*vz.width]
			e.Scatter(i-lo, rows[i])
		}
		encoders.Put(e)
	})
	return rows
}

// Vocabulary returns the fitted vocabulary of the named categorical feature,
// or nil if the feature is unknown or not categorical.
func (vz *Vectorizer) Vocabulary(name string) *Vocabulary {
	return vz.vocabs[name]
}

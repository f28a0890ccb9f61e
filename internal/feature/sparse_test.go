package feature

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"crossmodal/internal/sparse"
)

// refTransformInto is the dense encoder the sparse one replaced, kept as
// the differential reference: it writes every slot of the row itself, one
// name lookup per feature, categories in the order given.
func refTransformInto(vz *Vectorizer, v *Vector, row []float64) {
	for i := range row {
		row[i] = 0
	}
	for i := 0; i < vz.schema.Len(); i++ {
		d := vz.schema.Def(i)
		off := vz.offsets[i]
		val := v.Get(d.Name)
		switch d.Kind {
		case Categorical:
			voc := vz.vocabs[d.Name]
			if val.Missing {
				row[off+voc.Len()+1] = 1
				continue
			}
			for _, c := range val.Categories {
				if slot, ok := voc.Index(c); ok {
					row[off+slot] = 1
				} else {
					row[off+voc.Len()] = 1 // OOV
				}
			}
		case Numeric:
			if val.Missing {
				row[off+1] = 1
				continue
			}
			st := vz.stats[d.Name]
			row[off] = (val.Num - st.mean) / st.std
		case Embedding:
			if val.Missing || len(val.Vec) != d.Dim {
				row[off+d.Dim] = 1
				continue
			}
			copy(row[off:off+d.Dim], val.Vec)
		}
	}
}

// refFitVectorizer is the fit the one-pass version replaced: one pass over
// the vectors per feature.
func refFitVectorizer(schema *Schema, train []*Vector, maxVoc int) *Vectorizer {
	vz := &Vectorizer{schema: schema, vocabs: map[string]*Vocabulary{}, stats: map[string]numericStats{}, maxVoc: maxVoc}
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		switch d.Kind {
		case Categorical:
			counts := make(map[string]int)
			for _, v := range train {
				if val := v.Get(d.Name); !val.Missing {
					for _, c := range val.Categories {
						counts[c]++
					}
				}
			}
			vz.vocabs[d.Name] = fitVocab(counts, maxVoc)
		case Numeric:
			var sum, sumSq float64
			var n int
			for _, v := range train {
				if val := v.Get(d.Name); !val.Missing {
					sum += val.Num
					sumSq += val.Num * val.Num
					n++
				}
			}
			st := numericStats{mean: 0, std: 1}
			if n > 0 {
				st.mean = sum / float64(n)
				if variance := sumSq/float64(n) - st.mean*st.mean; variance > 1e-12 {
					st.std = math.Sqrt(variance)
				}
			}
			vz.stats[d.Name] = st
		}
	}
	vz.layout()
	return vz
}

// sparseSchema is the end-model schema of the sparse tests; wideSchema
// carries the same features out of order among others, as library vectors do.
func sparseSchemas() (end, wide *Schema) {
	end = MustSchema(
		Def{Name: "topic", Kind: Categorical},
		Def{Name: "tags", Kind: Categorical},
		Def{Name: "score", Kind: Numeric},
		Def{Name: "emb", Kind: Embedding, Dim: 4},
		Def{Name: "absent", Kind: Numeric}, // no source vector carries it
	)
	wide = MustSchema(
		Def{Name: "noise", Kind: Numeric},
		Def{Name: "emb", Kind: Embedding, Dim: 4},
		Def{Name: "tags", Kind: Categorical},
		Def{Name: "extra", Kind: Categorical},
		Def{Name: "score", Kind: Numeric},
		Def{Name: "topic", Kind: Categorical},
	)
	return end, wide
}

func randomSparseVector(rng *rand.Rand, schema *Schema) *Vector {
	word := func() string { return string(rune('a' + rng.Intn(12))) }
	v := NewVector(schema)
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		if rng.Intn(6) == 0 {
			continue // missing
		}
		switch d.Kind {
		case Categorical:
			cats := make([]string, rng.Intn(5))
			for k := range cats {
				cats[k] = word()
			}
			v.MustSetAt(i, CategoricalValue(cats...))
		case Numeric:
			v.MustSetAt(i, NumericValue(rng.NormFloat64()*4))
		case Embedding:
			vec := make([]float64, d.Dim)
			for k := range vec {
				if rng.Intn(3) != 0 {
					vec[k] = rng.NormFloat64()
				}
			}
			v.MustSetAt(i, EmbeddingValue(vec))
		}
	}
	return v
}

// checkSparseRow asserts row i of rows is exactly the non-zeros of the dense
// reference encoding of v, columns strictly ascending.
func checkSparseRow(t *testing.T, vz *Vectorizer, v *Vector, rows *sparse.Rows, i int) {
	t.Helper()
	want := make([]float64, vz.Width())
	refTransformInto(vz, v, want)
	got := make([]float64, vz.Width())
	rows.Scatter(i, got)
	for c := range want {
		if got[c] != want[c] && !(math.IsNaN(got[c]) && math.IsNaN(want[c])) {
			t.Fatalf("column %d: sparse row scatters %v, dense reference %v (vector %v)", c, got[c], want[c], v)
		}
	}
	cols, vals := rows.Row(i)
	for k, c := range cols {
		if vals[k] == 0 {
			t.Fatalf("column %d: explicit zero kept in the sparse row", c)
		}
		if k > 0 && c <= cols[k-1] {
			t.Fatalf("columns %v not strictly ascending", cols)
		}
	}
	dense := vz.Transform(v)
	for c := range want {
		if dense[c] != want[c] && !(math.IsNaN(dense[c]) && math.IsNaN(want[c])) {
			t.Fatalf("column %d: Transform = %v, dense reference %v", c, dense[c], want[c])
		}
	}
}

// TestSparseRowsMatchDenseReference: sparse rows equal the dense reference
// for vectors on the end-model schema and on a wider source schema, batch
// encodings are identical at any worker count, and the one-pass fit learns
// what the per-feature fit did.
func TestSparseRowsMatchDenseReference(t *testing.T) {
	end, wide := sparseSchemas()
	rng := rand.New(rand.NewSource(3))
	var vecs []*Vector
	for i := 0; i < 700; i++ {
		schema := end
		if i%3 != 0 { // runs of either schema, so the column map re-resolves
			schema = wide
		}
		vecs = append(vecs, randomSparseVector(rng, schema))
	}
	vz := FitVectorizer(end, vecs[:400], WithMaxVocabulary(7))
	ref := refFitVectorizer(end, vecs[:400], 7)
	if vz.Width() != ref.Width() {
		t.Fatalf("one-pass fit width %d, per-feature fit %d", vz.Width(), ref.Width())
	}
	for i := 0; i < end.Len(); i++ {
		d := end.Def(i)
		if vz.stats[d.Name] != ref.stats[d.Name] {
			t.Errorf("%s: stats %+v, per-feature fit %+v", d.Name, vz.stats[d.Name], ref.stats[d.Name])
		}
		if d.Kind == Categorical && strings.Join(vz.vocabs[d.Name].words, ",") != strings.Join(ref.vocabs[d.Name].words, ",") {
			t.Errorf("%s: vocabulary %v, per-feature fit %v", d.Name, vz.vocabs[d.Name].words, ref.vocabs[d.Name].words)
		}
	}
	serial := vz.TransformSparse(vecs, 1)
	if err := serial.Validate(); err != nil {
		t.Fatal(err)
	}
	if serial.Len() != len(vecs) || serial.Width != vz.Width() {
		t.Fatalf("block is %d×%d, want %d×%d", serial.Len(), serial.Width, len(vecs), vz.Width())
	}
	for i, v := range vecs {
		checkSparseRow(t, vz, v, serial, i)
	}
	for _, workers := range []int{2, 8} {
		got := vz.TransformSparse(vecs, workers)
		if len(got.Ptr) != len(serial.Ptr) || len(got.Cols) != len(serial.Cols) {
			t.Fatalf("workers=%d: %d rows / %d entries, serial %d / %d", workers, got.Len(), len(got.Cols), serial.Len(), len(serial.Cols))
		}
		for k := range serial.Cols {
			if got.Cols[k] != serial.Cols[k] || got.Vals[k] != serial.Vals[k] {
				t.Fatalf("workers=%d: entry %d differs from the serial block", workers, k)
			}
		}
		for k := range serial.Ptr {
			if got.Ptr[k] != serial.Ptr[k] {
				t.Fatalf("workers=%d: row pointer %d differs from the serial block", workers, k)
			}
		}
	}
	if empty := vz.TransformSparse(nil, 0); empty.Len() != 0 || empty.Validate() != nil {
		t.Errorf("empty batch: %d rows, Validate = %v", empty.Len(), empty.Validate())
	}
}

// TestEncoderReuseAllocatesNothing: a warm encoder is the serving arena; it
// must not allocate per batch.
func TestEncoderReuseAllocatesNothing(t *testing.T) {
	end, wide := sparseSchemas()
	rng := rand.New(rand.NewSource(8))
	vecs := make([]*Vector, 64)
	for i := range vecs {
		vecs[i] = randomSparseVector(rng, wide)
	}
	vz := FitVectorizer(end, vecs)
	var e Encoder
	vz.Encode(&e, vecs)
	if allocs := testing.AllocsPerRun(20, func() { vz.Encode(&e, vecs) }); allocs != 0 {
		t.Errorf("warm Encode allocates %v objects per batch, want 0", allocs)
	}
}

// FuzzSparseRowMatchesDense: for arbitrary categories, numerics, embedding
// lengths and missing flags, scattering the sparse row into zeros gives the
// dense reference row exactly, and its columns are strictly ascending.
func FuzzSparseRowMatchesDense(f *testing.F) {
	f.Add("a,b", "c,c,zz,a", 1.5, uint8(4), uint8(0), int64(1))
	f.Add("", "", 0.0, uint8(0), uint8(0xff), int64(2))
	f.Add("zz", "a,a,a", math.NaN(), uint8(3), uint8(2), int64(3))
	f.Add("k,j,i,h,g,f,e,d,c,b,a", ",", math.Inf(1), uint8(4), uint8(5), int64(4))
	end, wide := sparseSchemas()
	rng := rand.New(rand.NewSource(21))
	var train []*Vector
	for i := 0; i < 200; i++ {
		train = append(train, randomSparseVector(rng, end))
	}
	vz := FitVectorizer(end, train, WithMaxVocabulary(6))
	f.Fuzz(func(t *testing.T, topic, tags string, score float64, embLen, missing uint8, seed int64) {
		schema := end
		if missing&0x80 != 0 {
			schema = wide
		}
		v := NewVector(schema)
		set := func(bit uint8, name string, val Value) {
			if missing&bit == 0 {
				i, _ := schema.Index(name)
				// Written raw: Set would reject the off-length
				// embeddings the encoder must flag as missing.
				setRaw(v, i, val)
			}
		}
		set(1, "topic", CategoricalValue(strings.Split(topic, ",")...))
		set(2, "tags", CategoricalValue(strings.Split(tags, ",")...))
		set(4, "score", NumericValue(score))
		r := rand.New(rand.NewSource(seed))
		vec := make([]float64, embLen%8)
		for k := range vec {
			if r.Intn(3) != 0 {
				vec[k] = r.NormFloat64()
			}
		}
		set(8, "emb", EmbeddingValue(vec))
		var e Encoder
		vz.Encode(&e, []*Vector{v, v})
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
		checkSparseRow(t, vz, v, &e.Rows, 0)
		checkSparseRow(t, vz, v, &e.Rows, 1)
	})
}

// adversarialSparseBatch is n vectors for TransformSparse's window bound:
// duplicate and out-of-vocabulary categories, present-but-empty sets,
// embeddings of the wrong length, and source schemas that lack the
// vectorizer's features or carry one under another kind or dimension.
func adversarialSparseBatch(rng *rand.Rand, n int) []*Vector {
	end, wide := sparseSchemas()
	odd := MustSchema(
		Def{Name: "topic", Kind: Numeric},
		Def{Name: "emb", Kind: Embedding, Dim: 9},
		Def{Name: "tags", Kind: Categorical},
	)
	vecs := make([]*Vector, n)
	for i := range vecs {
		schema := [...]*Schema{end, wide, odd}[rng.Intn(3)]
		v := randomSparseVector(rng, schema)
		if j, ok := schema.Index("tags"); ok && rng.Intn(3) == 0 {
			// Every category repeated, with words the vocabulary never saw.
			cats := append(v.Categories(j), "zz", "zz", "yy")
			v.MustSetAt(j, CategoricalValue(append(cats, cats...)...))
		}
		if j, ok := schema.Index("emb"); ok && rng.Intn(3) == 0 {
			setRaw(v, j, EmbeddingValue(make([]float64, rng.Intn(12))))
		}
		vecs[i] = v
	}
	return vecs
}

// tightSparseBatch is n vectors whose every bounded entry is written: all
// features present and non-zero, categories distinct and at most one of
// them outside vocab (a vocabulary's words), embeddings of the right
// length. Their rows fill TransformSparse's slab exactly.
func tightSparseBatch(rng *rand.Rand, n int, vocab []string) []*Vector {
	end, _ := sparseSchemas()
	vecs := make([]*Vector, n)
	for i := range vecs {
		v := NewVector(end)
		v.MustSet("topic", CategoricalValue("never seen"))
		v.MustSet("tags", CategoricalValue(append(slices.Clone(vocab[:rng.Intn(len(vocab)+1)]), "never seen")...))
		v.MustSet("score", NumericValue(1+rng.Float64()))
		v.MustSet("emb", EmbeddingValue([]float64{1, -2, 3, 1 + rng.Float64()}))
		vecs[i] = v
	}
	return vecs
}

// TestTransformSparseMatchesEncode: TransformSparse's block is, row for row,
// what encoding each vector alone gives, at batch sizes around the chunk
// length and at any worker count; a tight batch fills its slab exactly.
func TestTransformSparseMatchesEncode(t *testing.T) {
	end, _ := sparseSchemas()
	rng := rand.New(rand.NewSource(29))
	vz := FitVectorizer(end, adversarialSparseBatch(rng, 300), WithMaxVocabulary(5))
	var e Encoder
	for _, n := range []int{0, 1, 127, 128, 129, 300} {
		for _, tight := range []bool{false, true} {
			vecs := adversarialSparseBatch(rng, n)
			if tight {
				vecs = tightSparseBatch(rng, n, vz.Vocabulary("tags").Words())
			}
			for _, workers := range []int{1, 2, 8} {
				got := vz.TransformSparse(vecs, workers)
				if err := got.Validate(); err != nil || got.Len() != n {
					t.Fatalf("tight=%v n=%d workers=%d: %d rows, Validate = %v", tight, n, workers, got.Len(), err)
				}
				if tight && cap(got.Cols) != len(got.Cols) {
					t.Fatalf("tight n=%d workers=%d: %d entries in a %d-entry slab", n, workers, len(got.Cols), cap(got.Cols))
				}
				checkRowsMatchEncode(t, vz, &e, vecs, got)
			}
		}
	}
}

// checkRowsMatchEncode requires rows to hold, row for row, the encoding of
// each vector on its own.
func checkRowsMatchEncode(t *testing.T, vz *Vectorizer, e *Encoder, vecs []*Vector, rows *sparse.Rows) {
	t.Helper()
	for i, v := range vecs {
		vz.Encode(e, []*Vector{v})
		gc, gv := rows.Row(i)
		wc, wv := e.Row(0)
		if !slices.Equal(gc, wc) || !slices.EqualFunc(gv, wv, sameBits) {
			t.Fatalf("row %d of %d: %v %v, Encode %v %v (vector %v)", i, len(vecs), gc, gv, wc, wv, v)
		}
	}
}

// TestTransformSparseAllocsPerBatch: the block is sized once and every
// chunk encodes through a pooled encoder, so ten times the rows cost no
// more allocations. The collector is off while it counts: a collection
// empties the encoder pool, and refilling it is not a per-chunk cost.
func TestTransformSparseAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	end, _ := sparseSchemas()
	rng := rand.New(rand.NewSource(31))
	vecs := adversarialSparseBatch(rng, 3000)
	vz := FitVectorizer(end, vecs)
	for _, workers := range []int{1, 2} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(10, func() { vz.TransformSparse(vecs[:n], workers) })
		}
		if small, large := allocs(300), allocs(3000); small != large {
			t.Errorf("workers=%d: %v allocations at 300 rows, %v at 3000", workers, small, large)
		}
	}
}

func BenchmarkTransformSparse(b *testing.B) {
	end, wide := sparseSchemas()
	rng := rand.New(rand.NewSource(37))
	vecs := make([]*Vector, 20000)
	for i := range vecs {
		vecs[i] = randomSparseVector(rng, wide)
	}
	vz := FitVectorizer(end, vecs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vz.TransformSparse(vecs, 1)
	}
}

package feature

import (
	"math"
	"math/rand"
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

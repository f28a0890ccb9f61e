package feature

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// refValue and refVector are the []Value-backed vector the packed cells
// replaced, kept verbatim (88-byte slots, aliased caller slices, the catIDs
// cache and its string fallback) as the reference the packed representation
// must match bit for bit.
type refValue struct {
	Value
	catIDs []uint32
}

type refVector struct {
	schema *Schema
	values []refValue
}

func newRefVector(schema *Schema) *refVector {
	v := &refVector{schema: schema, values: make([]refValue, schema.Len())}
	for i := range v.values {
		v.values[i].Missing = true
	}
	return v
}

func (v *refVector) Set(name string, val Value) error {
	i, ok := v.schema.Index(name)
	if !ok {
		return fmt.Errorf("feature: unknown feature %q", name)
	}
	return v.SetAt(i, val)
}

func (v *refVector) SetAt(i int, val Value) error {
	rv := refValue{Value: val}
	if !val.Missing {
		d := &v.schema.defs[i]
		if d.Kind == Embedding && len(val.Vec) != d.Dim {
			return fmt.Errorf("feature: embedding %q wants dim %d, got %d", d.Name, d.Dim, len(val.Vec))
		}
		if d.Kind == Categorical {
			rv.catIDs = internCategories(val.Categories)
		}
	}
	v.values[i] = rv
	return nil
}

func (v *refVector) Get(name string) Value {
	i, ok := v.schema.Index(name)
	if !ok {
		return MissingValue()
	}
	return v.values[i].Value
}

func (v *refVector) At(i int) Value { return v.values[i].Value }

func (v *refVector) Reproject(target *Schema) *refVector {
	out := newRefVector(target)
	for i, d := range v.schema.defs {
		if j, ok := target.Index(d.Name); ok {
			out.values[j] = v.values[i]
		}
	}
	return out
}

func (v *refVector) Clone() *refVector {
	out := &refVector{schema: v.schema, values: make([]refValue, len(v.values))}
	for i, val := range v.values {
		cp := val
		if val.Categories != nil {
			cp.Categories = append([]string(nil), val.Categories...)
			cp.catIDs = nil
		}
		if val.Vec != nil {
			cp.Vec = append([]float64(nil), val.Vec...)
		}
		out.values[i] = cp
	}
	return out
}

func (v *refVector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, d := range v.schema.defs {
		val := v.values[i]
		if val.Missing {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		switch d.Kind {
		case Categorical:
			cats := append([]string(nil), val.Categories...)
			sort.Strings(cats)
			fmt.Fprintf(&b, "%s=[%s]", d.Name, strings.Join(cats, " "))
		case Numeric:
			fmt.Fprintf(&b, "%s=%.4g", d.Name, val.Num)
		case Embedding:
			fmt.Fprintf(&b, "%s=vec(%d)", d.Name, len(val.Vec))
		}
	}
	b.WriteByte('}')
	return b.String()
}

func (rv *refValue) internedCategories() []uint32 {
	if rv.Missing || len(rv.Categories) == 0 {
		return nil
	}
	if rv.catIDs != nil {
		return rv.catIDs
	}
	return internCategories(rv.Categories)
}

func refSimilarity(a, b *refVector, i int, scales Scales) (float64, bool) {
	av, bv := &a.values[i], &b.values[i]
	if av.Missing || bv.Missing {
		return 0, false
	}
	d := a.schema.defs[i]
	switch d.Kind {
	case Categorical:
		if (av.catIDs != nil || len(av.Categories) == 0) && (bv.catIDs != nil || len(bv.Categories) == 0) {
			return JaccardIDs(av.catIDs, bv.catIDs), true
		}
		return Jaccard(av.Categories, bv.Categories), true
	case Numeric:
		return NumericSimilarity(av.Num, bv.Num, scales[d.Name]), true
	case Embedding:
		return (CosineSimilarity(av.Vec, bv.Vec) + 1) / 2, true
	default:
		return 0, false
	}
}

func refWeightedSimilarity(a, b *refVector, scales Scales, weights Weights) float64 {
	var sum, wsum float64
	for i := range a.schema.defs {
		s, ok := refSimilarity(a, b, i, scales)
		if !ok {
			continue
		}
		w := 1.0
		if got, exists := weights[a.schema.defs[i].Name]; exists {
			w = got
		}
		if w <= 0 {
			continue
		}
		sum += w * s
		wsum += w
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// setRaw stores val at position i past SetVec's dimension check: the
// off-length embedding a reprojection between differently-dimensioned
// schemas can carry, which readers must tolerate.
func setRaw(v *Vector, i int, val Value) {
	if v.schema.defs[i].Kind != Embedding || val.Missing {
		v.MustSetAt(i, val)
	} else if err := v.setVec(i, val.Vec); err != nil {
		panic(err)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameValue compares two values the way Equal compares vectors: floats by
// bits, categories in order, nil and empty slices alike.
func sameValue(a, b Value) bool {
	return a.Missing == b.Missing && sameBits(a.Num, b.Num) &&
		slices.Equal(a.Categories, b.Categories) && slices.EqualFunc(a.Vec, b.Vec, sameBits)
}

// twin is one vector in both representations.
type twin struct {
	got  *Vector
	want *refVector
}

func (tw twin) check(t *testing.T, where string) {
	t.Helper()
	schema := tw.want.schema
	if tw.got.Schema() != schema {
		t.Fatalf("%s: schema %v, want %v", where, tw.got.Schema(), schema)
	}
	if got, want := tw.got.String(), tw.want.String(); got != want {
		t.Fatalf("%s: String %s, reference %s", where, got, want)
	}
	for i := 0; i < schema.Len(); i++ {
		want := tw.want.values[i]
		name := schema.defs[i].Name
		if got := tw.got.At(i); !sameValue(got, want.Value) {
			t.Fatalf("%s: At(%d) = %+v, reference %+v", where, i, got, want.Value)
		}
		if got := tw.got.Get(name); !sameValue(got, tw.want.Get(name)) {
			t.Fatalf("%s: Get(%q) = %+v, reference %+v", where, name, got, want.Value)
		}
		if tw.got.Present(i) == want.Missing || !sameBits(tw.got.Num(i), want.Num) ||
			!slices.Equal(tw.got.CategoryNames(i), want.Categories) || !slices.EqualFunc(tw.got.Vec(i), want.Vec, sameBits) {
			t.Fatalf("%s: typed readers at %d give (%v, %v, %v, %v), reference %+v", where, i,
				tw.got.Present(i), tw.got.Num(i), tw.got.CategoryNames(i), tw.got.Vec(i), want.Value)
		}
		ids := want.internedCategories()
		if got := tw.got.CategoryIDs(i); !slices.Equal(got, ids) {
			t.Fatalf("%s: CategoryIDs(%d) = %v, reference %v", where, i, got, ids)
		}
	}
	if got := tw.got.Get("no such feature"); !got.Missing {
		t.Fatalf("%s: Get of an unknown name = %+v, want Missing", where, got)
	}
	if c := tw.got.Clone(); !c.Equal(tw.got) || !tw.got.Equal(c) {
		t.Fatalf("%s: clone %v is not Equal to its source %v", where, c, tw.got)
	}
}

// checkPair requires every similarity form over two same-schema twins to
// match the reference's bits.
func checkPair(t *testing.T, where string, a, b twin, scales Scales, weights Weights) {
	t.Helper()
	schema := a.want.schema
	kern := NewSimKernel(schema, scales, weights)
	for i := 0; i < schema.Len(); i++ {
		want, wok := refSimilarity(a.want, b.want, i, scales)
		for name, fn := range map[string]func() (float64, bool){
			"Similarity":           func() (float64, bool) { return Similarity(a.got, b.got, i, scales) },
			"SimKernel.Similarity": func() (float64, bool) { return kern.Similarity(a.got, b.got, i) },
		} {
			if got, ok := fn(); ok != wok || !sameBits(got, want) {
				t.Fatalf("%s: %s feature %d = (%v, %v), reference (%v, %v)", where, name, i, got, ok, want, wok)
			}
		}
	}
	want := refWeightedSimilarity(a.want, b.want, scales, weights)
	if got := WeightedSimilarity(a.got, b.got, scales, weights); !sameBits(got, want) {
		t.Fatalf("%s: WeightedSimilarity %v, reference %v", where, got, want)
	}
	if got, ok := weighted(packPair(kern, a.got, b.got), 0, 1, 0); !ok || !sameBits(got, want) {
		t.Fatalf("%s: Arena.Weighted (%v, %v), reference %v", where, got, ok, want)
	}
}

var oddFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64}

func randomFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return oddFloats[rng.Intn(len(oddFloats))]
	}
	return rng.NormFloat64() * 3
}

// randomValueFor draws a value for d: Missing, an empty or duplicate-laden
// category set, odd floats, and now and then an embedding of the wrong
// dimension (which SetAt must refuse in both representations).
func randomValueFor(rng *rand.Rand, d Def) Value {
	if rng.Intn(6) == 0 {
		return MissingValue()
	}
	switch d.Kind {
	case Categorical:
		cats := make([]string, rng.Intn(6))
		for k := range cats {
			cats[k] = fmt.Sprintf("c%d", rng.Intn(7))
		}
		return CategoricalValue(cats...)
	case Numeric:
		return NumericValue(randomFloat(rng))
	default:
		dim := d.Dim
		if rng.Intn(8) == 0 {
			dim = rng.Intn(d.Dim + 2)
		}
		vec := make([]float64, dim)
		for k := range vec {
			vec[k] = randomFloat(rng)
		}
		return EmbeddingValue(vec)
	}
}

func randomDef(rng *rand.Rand, name string) Def {
	d := Def{Name: name, Kind: Kind(rng.Intn(3))}
	if d.Kind == Embedding {
		d.Dim = 1 + rng.Intn(32)
	}
	return d
}

// checkPackedVector drives one random schema (nFeat features of every kind)
// through steps random writes, reprojections and clones in both
// representations, re-checking every live vector after each step — so a
// write that leaks from a reprojection or clone into its source, or the
// other way, is caught on the vector that did not ask for it. lists are
// categorical values written first, in turn into the schema's categorical
// features of the first pair, before any random step.
func checkPackedVector(t *testing.T, seed int64, nFeat, steps int, lists [][]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	defs := make([]Def, nFeat)
	for i := range defs {
		defs[i] = randomDef(rng, fmt.Sprintf("f%d", i))
	}
	scales, weights := Scales{}, Weights{}
	for _, d := range defs {
		if rng.Intn(2) == 0 {
			scales[d.Name] = rng.Float64()*3 - 0.3
		}
		if rng.Intn(3) == 0 {
			weights[d.Name] = rng.Float64()*2 - 0.4
		}
	}
	// Each group is two twins under one schema, so pair scores are defined.
	schema := MustSchema(defs...)
	groups := [][2]twin{{{NewVector(schema), newRefVector(schema)}, {NewVector(schema), newRefVector(schema)}}}
	var catPos []int
	for i, d := range defs {
		if d.Kind == Categorical {
			catPos = append(catPos, i)
		}
	}
	for k, list := range lists {
		if len(catPos) == 0 {
			break
		}
		tw, i := groups[0][k%2], catPos[k%len(catPos)]
		if err := tw.got.SetAt(i, CategoricalValue(list...)); err != nil {
			t.Fatal(err)
		}
		if err := tw.want.SetAt(i, CategoricalValue(list...)); err != nil {
			t.Fatal(err)
		}
	}
	if len(lists) > 0 {
		groups[0][0].check(t, "after the listed writes a")
		groups[0][1].check(t, "after the listed writes b")
		checkPair(t, "after the listed writes", groups[0][0], groups[0][1], scales, weights)
	}
	for step := 0; step < steps; step++ {
		g := rng.Intn(len(groups))
		schema := groups[g][0].want.schema
		switch op := rng.Intn(10); {
		case op < 7 && schema.Len() > 0: // write, by position or by name
			tw := groups[g][rng.Intn(2)]
			i := rng.Intn(schema.Len())
			val := randomValueFor(rng, schema.defs[i])
			var gotErr, wantErr error
			if rng.Intn(2) == 0 {
				gotErr, wantErr = tw.got.SetAt(i, val), tw.want.SetAt(i, val)
			} else {
				gotErr, wantErr = tw.got.Set(schema.defs[i].Name, val), tw.want.Set(schema.defs[i].Name, val)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d step %d: SetAt(%d, %+v) = %v, reference %v", seed, step, i, val, gotErr, wantErr)
			}
		case op < 9 && len(groups) < 5: // reproject both onto a shuffled subset, some defs redefined, some new
			var tdefs []Def
			for _, i := range rng.Perm(schema.Len()) {
				switch d := schema.defs[i]; rng.Intn(8) {
				case 0, 1: // dropped
				case 2: // same name, another kind or dimension: the value rides along as stored
					tdefs = append(tdefs, randomDef(rng, d.Name))
				default:
					tdefs = append(tdefs, d)
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				tdefs = append(tdefs, randomDef(rng, fmt.Sprintf("new%d_%d", step, k)))
			}
			target := MustSchema(tdefs...)
			a, b := groups[g][0], groups[g][1]
			groups = append(groups, [2]twin{{a.got.Reproject(target), a.want.Reproject(target)}, {b.got.Reproject(target), b.want.Reproject(target)}})
		case len(groups) < 5:
			a, b := groups[g][0], groups[g][1]
			groups = append(groups, [2]twin{{a.got.Clone(), a.want.Clone()}, {b.got.Clone(), b.want.Clone()}})
		}
		for g, pair := range groups {
			where := fmt.Sprintf("seed %d step %d group %d", seed, step, g)
			pair[0].check(t, where+" a")
			pair[1].check(t, where+" b")
			checkPair(t, where, pair[0], pair[1], scales, weights)
		}
	}
}

// TestPackedVectorMatchesReference runs the differential property over a
// fixed sweep so plain `go test` exercises it beyond the fuzz seeds.
func TestPackedVectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 150; trial++ {
		checkPackedVector(t, rng.Int63(), rng.Intn(71), 25, nil)
	}
}

// FuzzPackedVectorMatchesReference fuzzes the packed vector against the
// []Value-backed reference over random schemas and operation sequences,
// after writing the categorical values lists spells (see categoryLists).
func FuzzPackedVectorMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), []byte(nil))
	f.Add(int64(2), uint8(18), uint8(60), []byte(nil))
	f.Add(int64(3), uint8(70), uint8(30), []byte(nil))
	f.Add(int64(4), uint8(0), uint8(5), []byte(nil))
	f.Add(int64(5), uint8(6), uint8(10), []byte{3, 3, 3, 0xff, 0xff, 1, 2, 1, 0xff})   // duplicates, an empty list
	f.Add(int64(6), uint8(12), uint8(0), []byte{0xff, 0xff, 0xff, 5, 5})               // empty lists only, then a duplicate pair
	f.Add(int64(7), uint8(9), uint8(8), []byte{6, 0, 6, 0, 0xff, 4, 0xff, 2, 2, 2, 2}) // repeats out of order
	f.Fuzz(func(t *testing.T, seed int64, nFeat, steps uint8, lists []byte) {
		checkPackedVector(t, seed, int(nFeat%71), int(steps%64), categoryLists(lists))
	})
}

// categoryLists decodes fuzz bytes into category lists: 0xff ends a list
// (so two in a row spell an empty one) and any other byte b is "c<b%7>", so
// duplicates are common.
func categoryLists(b []byte) [][]string {
	if len(b) == 0 {
		return nil
	}
	lists := [][]string{{}}
	for _, x := range b {
		if x == 0xff {
			lists = append(lists, []string{})
			continue
		}
		last := len(lists) - 1
		lists[last] = append(lists[last], fmt.Sprintf("c%d", x%7))
	}
	return lists
}

// TestCellLayout guards the slab's two properties: 16 bytes a cell, and no
// pointer anywhere in it — a pointer field would make every slab scannable
// by the garbage collector again. A vector header, one per row of every
// slab, stays at six machine words (48 bytes on a 64-bit platform).
func TestCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 16 {
		t.Errorf("cell is %d bytes, want 16", got)
	}
	if got, want := unsafe.Sizeof(Vector{}), 6*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Vector is %d bytes, want %d", got, want)
	}
	if ty := pointerBearing(reflect.TypeOf(cell{})); ty != nil {
		t.Errorf("cell contains pointer-bearing type %v", ty)
	}
	if v := NewVectors(MustSchema(Def{Name: "n", Kind: Numeric}), 3); v[2].Present(0) {
		t.Error("the zero cell is not Missing")
	}
}

// TestPayloadHoldsNoPointers: every payload field is a slice of pointer-free
// elements, so the arrays behind a slab's values — one per kind, the bulk of
// a corpus held in memory — are never scanned by the garbage collector. A
// category is its intern ID; its name lives once, in the interner.
func TestPayloadHoldsNoPointers(t *testing.T) {
	ty := reflect.TypeOf(payload{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("payload field %s is a %v, want a slice", f.Name, f.Type)
		} else if elem := pointerBearing(f.Type.Elem()); elem != nil {
			t.Errorf("payload field %s holds pointer-bearing %v", f.Name, elem)
		}
	}
}

// pointerBearing returns the first type within ty that holds a pointer, or
// nil when ty holds none.
func pointerBearing(ty reflect.Type) reflect.Type {
	switch ty.Kind() {
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			if p := pointerBearing(ty.Field(i).Type); p != nil {
				return p
			}
		}
	case reflect.Array:
		return pointerBearing(ty.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return ty
	}
	return nil
}

// TestSetAtCopiesPayload: a vector owns what it was given. Mutating the
// caller's slices after Set changes neither the strings, the intern IDs the
// similarity kernels read, nor the embedding.
func TestSetAtCopiesPayload(t *testing.T) {
	schema := internTestSchema(t)
	cats, emb := []string{"x", "y"}, make([]float64, 8)
	emb[0] = 1
	v, same := NewVector(schema), NewVector(schema)
	for _, w := range []*Vector{v, same} {
		w.MustSet("cat", CategoricalValue("x", "y"))
		w.MustSet("emb", EmbeddingValue(append([]float64(nil), emb...)))
	}
	v.MustSet("cat", CategoricalValue(cats...))
	v.MustSet("emb", EmbeddingValue(emb))
	cats[0], emb[0] = "z", -1
	if !v.Get("cat").HasCategory("x") || v.Get("cat").HasCategory("z") {
		t.Errorf("mutating the caller's categories changed the vector: %v", v)
	}
	for i := 0; i < schema.Len(); i++ {
		if s, ok := Similarity(v, same, i, nil); ok && s != 1 {
			t.Errorf("feature %d: similarity to an identical vector is %v after the caller's slice changed", i, s)
		}
	}
	if !v.Equal(same) {
		t.Errorf("vector %v no longer equals %v", v, same)
	}
}

// TestReprojectAndCloneIsolation pins the sharing rules: a reprojection
// borrows the payload read-only, so a later write on either side — or on a
// clone — never shows through on the other.
func TestReprojectAndCloneIsolation(t *testing.T) {
	schema := internTestSchema(t)
	src := NewVector(schema)
	src.MustSet("cat", CategoricalValue("a", "b"))
	src.MustSet("emb", EmbeddingValue([]float64{1, 2, 3, 4, 5, 6, 7, 8}))
	before := src.Clone()
	proj := src.Reproject(schema)
	if &proj.pay.ids[0] != &src.pay.ids[0] {
		t.Fatal("Reproject copied the payload instead of sharing it")
	}
	proj.MustSet("cat", CategoricalValue("p"))
	proj.MustSet("tags", CategoricalValue("q", "q"))
	if !src.Equal(before) {
		t.Fatalf("writing the reprojection changed its source: %v, was %v", src, before)
	}
	if len(src.pay.ids) != 4 { // two IDs and their sorted set
		t.Fatalf("the reprojection appended to the payload it borrowed: %v", src.pay.ids)
	}
	if got := proj.Vec(3); !slices.Equal(got, src.Vec(3)) {
		t.Fatalf("the reprojection lost the embedding it carried: %v", got)
	}
	wantProj := proj.Clone()
	src.MustSet("cat", CategoricalValue("s"))
	src.MustSet("num", NumericValue(4))
	if !proj.Equal(wantProj) {
		t.Fatalf("writing the source changed its reprojection: %v, was %v", proj, wantProj)
	}
	clone := src.Clone()
	clone.MustSet("cat", MissingValue())
	if !src.Present(0) || src.Equal(clone) {
		t.Fatal("writing a clone changed its source")
	}
}

// TestPayloadWindowLimits: a value the 32-bit cell window cannot address is
// an error, never a wrap-around; a present-but-empty set stays present.
// Rows an int cannot hold (on a 32-bit platform) are skipped.
func TestPayloadWindowLimits(t *testing.T) {
	for _, tc := range []struct {
		off, n int64
		ok     bool
	}{
		{0, 0, true}, {math.MaxUint32, 0, true}, {0, math.MaxUint32, true}, {math.MaxUint32 - 5, 5, true},
		{math.MaxUint32, 1, false}, {1, math.MaxUint32, false}, {math.MaxUint32 + 1, 0, false}, {0, math.MaxUint32 + 1, false},
	} {
		if int64(int(tc.off)) != tc.off || int64(int(tc.n)) != tc.n {
			continue
		}
		w, err := packWindow(int(tc.off), int(tc.n))
		if (err == nil) != tc.ok {
			t.Errorf("packWindow(%d, %d): err = %v, want ok = %v", tc.off, tc.n, err, tc.ok)
		}
		if off, end := (cell{w: w}).window(); err == nil && (int64(off) != tc.off || int64(end) != tc.off+tc.n) {
			t.Errorf("packWindow(%d, %d) reads back as [%d, %d)", tc.off, tc.n, off, end)
		}
	}
	v := NewVector(internTestSchema(t))
	v.MustSet("cat", CategoricalValue())
	if !v.Present(0) || v.CategoryNames(0) != nil || v.CategoryIDs(0) != nil || v.At(0).Missing {
		t.Errorf("an empty set is not a present, empty value: %+v", v.At(0))
	}
	if err := v.SetAt(3, EmbeddingValue(make([]float64, 7))); err == nil {
		t.Error("SetAt accepted an embedding of the wrong dimension")
	}
	odd := &Schema{}
	if err := odd.add(Def{Name: "odd", Kind: Kind(9)}); err != nil {
		t.Fatal(err)
	}
	if err := NewVector(odd).SetAt(0, NumericValue(1)); err == nil {
		t.Error("SetAt accepted a value for a feature of unknown kind")
	}
}

// TestConcurrentSlabReaders: once its creator has written a slab, any number
// of goroutines may read it — typed readers, At, Reproject (and writes to
// the reprojection, which must not touch the shared payload) and
// Arena.Append. Run under -race.
func TestConcurrentSlabReaders(t *testing.T) {
	schema := internTestSchema(t)
	rng := rand.New(rand.NewSource(83))
	const n = 64
	slab := NewVectors(schema, n)
	want := make([]*Vector, n)
	for r := range slab {
		want[r] = randomVector(t, rng, schema)
		for i := 0; i < schema.Len(); i++ {
			slab[r].MustSetAt(i, want[r].At(i))
		}
	}
	onlyCats := schema.Project(func(d Def) bool { return d.Kind == Categorical })
	kern := NewSimKernel(schema, Scales{"num": 2}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := kern.NewArena()
			for r := range slab {
				v := &slab[r]
				if !v.Equal(want[r]) {
					t.Errorf("goroutine %d row %d: read %v, want %v", g, r, v, want[r])
					return
				}
				for i := 0; i < schema.Len(); i++ {
					if !sameValue(v.At(i), want[r].At(i)) || !slices.Equal(v.CategoryIDs(i), want[r].CategoryIDs(i)) {
						t.Errorf("goroutine %d row %d feature %d: At %+v, want %+v", g, r, i, v.At(i), want[r].At(i))
						return
					}
				}
				p := v.Reproject(onlyCats)
				p.MustSetAt(g%2, CategoricalValue(fmt.Sprintf("g%d", g)))
				appendVecs(arena, v)
			}
			if got, ok := weighted(arena, 0, 1, 0); !ok || got != WeightedSimilarity(want[0], want[1], Scales{"num": 2}, nil) {
				t.Errorf("goroutine %d: packed pair %v disagrees with the written vectors", g, got)
			}
		}()
	}
	wg.Wait()
}

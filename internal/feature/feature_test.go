package feature

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Def{Name: "topic", Kind: Categorical, Set: "C", Servable: true},
		Def{Name: "objects", Kind: Categorical, Set: "C", Servable: true},
		Def{Name: "reports", Kind: Numeric, Set: "D", Servable: false},
		Def{Name: "emb", Kind: Embedding, Set: "I", Servable: true, Dim: 3},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if i, ok := s.Index("reports"); !ok || i != 2 {
		t.Errorf("Index(reports) = %d,%v want 2,true", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should not exist")
	}
	names := s.Names()
	want := []string{"topic", "objects", "reports", "emb"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	cases := []struct {
		name string
		defs []Def
	}{
		{"duplicate", []Def{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric}}},
		{"empty name", []Def{{Name: "", Kind: Numeric}}},
		{"embedding without dim", []Def{{Name: "e", Kind: Embedding}}},
		{"numeric with dim", []Def{{Name: "n", Kind: Numeric, Dim: 4}}},
	}
	for _, tc := range cases {
		if _, err := NewSchema(tc.defs...); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSchemaProjection(t *testing.T) {
	s := testSchema(t)
	serv := s.Servable()
	if serv.Len() != 3 {
		t.Fatalf("Servable len = %d, want 3", serv.Len())
	}
	if _, ok := serv.Index("reports"); ok {
		t.Error("nonservable feature leaked into Servable()")
	}
	setC := s.Sets("C")
	if setC.Len() != 2 {
		t.Fatalf("Sets(C) len = %d, want 2", setC.Len())
	}
	if s.Sets().Len() != 0 {
		t.Error("Sets() with no args should be empty")
	}
	both := s.Sets("C", "D")
	if both.Len() != 3 {
		t.Errorf("Sets(C,D) len = %d, want 3", both.Len())
	}
}

func TestVectorSetGet(t *testing.T) {
	s := testSchema(t)
	v := NewVector(s)
	if !v.Get("topic").Missing {
		t.Error("fresh vector should be all-missing")
	}
	if err := v.Set("topic", CategoricalValue("sports")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if !v.Get("topic").HasCategory("sports") {
		t.Error("category not stored")
	}
	if err := v.Set("nope", NumericValue(1)); err == nil {
		t.Error("expected unknown-feature error")
	}
	if err := v.Set("emb", EmbeddingValue([]float64{1, 2})); err == nil {
		t.Error("expected dim-mismatch error")
	}
	if err := v.Set("emb", EmbeddingValue([]float64{1, 2, 3})); err != nil {
		t.Errorf("Set emb: %v", err)
	}
	if err := v.Set("emb", MissingValue()); err != nil {
		t.Errorf("Set missing should not type-check: %v", err)
	}
}

func TestVectorReproject(t *testing.T) {
	s := testSchema(t)
	v := NewVector(s)
	v.MustSet("topic", CategoricalValue("x"))
	v.MustSet("reports", NumericValue(7))

	target := MustSchema(
		Def{Name: "reports", Kind: Numeric, Set: "D"},
		Def{Name: "other", Kind: Numeric, Set: "Z"},
	)
	got := v.Reproject(target)
	if got.Get("reports").Num != 7 {
		t.Error("reports not carried over")
	}
	if !got.Get("other").Missing {
		t.Error("unknown feature should be missing")
	}
}

func TestVectorClone(t *testing.T) {
	s := testSchema(t)
	v := NewVector(s)
	v.MustSet("topic", CategoricalValue("a", "b"))
	v.MustSet("emb", EmbeddingValue([]float64{1, 2, 3}))
	c := v.Clone()
	c.Get("topic").Categories[0] = "mutated"
	c.Get("emb").Vec[0] = 99
	if v.Get("topic").Categories[0] != "a" || v.Get("emb").Vec[0] != 1 {
		t.Error("Clone aliases the original payloads")
	}
}

// TestVectorUnset: Unset leaves the position Missing, gives back the payload
// room of the last write and only of it, and never truncates a borrowed
// payload.
func TestVectorUnset(t *testing.T) {
	s := testSchema(t)
	v := NewVector(s)
	v.MustSet("topic", CategoricalValue("a"))
	v.MustSet("objects", CategoricalValue("b", "c"))
	v.MustSet("reports", NumericValue(7))
	v.MustSet("emb", EmbeddingValue([]float64{1, 2, 3}))
	v.Unset(0) // not the last categorical write: its room stays
	// topic's one ID, then objects' two IDs and their sorted set
	if ids, embs := v.PayloadLen(); ids != 5 || embs != 3 || v.Present(0) {
		t.Fatalf("after Unset(topic): payload %d/%d, present %v", ids, embs, v.Present(0))
	}
	v.Unset(1)
	v.Unset(2)
	v.Unset(3)
	if cats, embs := v.PayloadLen(); cats != 1 || embs != 0 {
		t.Fatalf("after unsetting the last writes: payload %d/%d, want 1/0", cats, embs)
	}
	v.MustSet("objects", CategoricalValue("d"))
	if got := v.Get("objects").Categories; len(got) != 1 || got[0] != "d" || v.Present(0) || v.Present(2) {
		t.Fatalf("rewrite after Unset: %v", v)
	}
	if ids := v.CategoryIDs(1); len(ids) != 1 || ids[0] != InternID("d") {
		t.Fatalf("rewrite after Unset: intern IDs %v", ids)
	}

	src := NewVector(s)
	src.MustSet("emb", EmbeddingValue([]float64{4, 5, 6}))
	b := src.Reproject(s)
	b.Unset(3)
	if _, embs := src.PayloadLen(); embs != 3 || src.Get("emb").Vec[2] != 6 {
		t.Fatal("Unset on a reprojection truncated its source's payload")
	}
}

func TestVectorString(t *testing.T) {
	s := testSchema(t)
	v := NewVector(s)
	v.MustSet("topic", CategoricalValue("b", "a"))
	v.MustSet("reports", NumericValue(2.5))
	got := v.String()
	for _, want := range []string{"topic=[a b]", "reports=2.5"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, want it to contain %q", got, want)
		}
	}
	if strings.Contains(got, "emb") {
		t.Errorf("String() = %q should omit missing features", got)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"x"}, nil, 0},
		{[]string{"x"}, []string{"x"}, 1},
		{[]string{"x"}, []string{"y"}, 0},
		{[]string{"x", "y"}, []string{"y", "z"}, 1.0 / 3.0},
		{[]string{"x", "x", "y"}, []string{"y"}, 0.5}, // duplicates collapse
	}
	for _, tc := range cases {
		if got := Jaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	gen := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6)
		out := make([]string, n)
		for i := range out {
			out[i] = string(rune('a' + rng.Intn(8)))
		}
		return out
	}
	symBounded := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(symBounded, nil); err != nil {
		t.Error(err)
	}
	selfOne := func(s int64) bool {
		a := gen(s)
		return Jaccard(a, a) == 1
	}
	if err := quick.Check(selfOne, nil); err != nil {
		t.Error(err)
	}
}

func TestNumericSimilarity(t *testing.T) {
	if got := NumericSimilarity(3, 3, 2); got != 1 {
		t.Errorf("identical values: %v, want 1", got)
	}
	near := NumericSimilarity(0, 1, 5)
	far := NumericSimilarity(0, 10, 5)
	if !(near > far && far > 0) {
		t.Errorf("similarity should decrease with distance: near=%v far=%v", near, far)
	}
	if got := NumericSimilarity(0, 1, 0); got != NumericSimilarity(0, 1, 1) {
		t.Errorf("non-positive scale should fall back to 1: %v", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel = %v, want 1", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal = %v, want 0", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{-1, 0}); math.Abs(got+1) > 1e-12 {
		t.Errorf("antiparallel = %v, want -1", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero vector = %v, want 0", got)
	}
	if got := CosineSimilarity([]float64{1}, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch = %v, want 0", got)
	}
}

func TestWeightAlgorithm1Example(t *testing.T) {
	// Paper §4.4 worked example: Ft = (True, outdoor), Fi = (False, outdoor)
	// gives one agreeing categorical feature out of two; our normalized
	// variant yields (0 + 1) / 2.
	s := MustSchema(
		Def{Name: "profanity", Kind: Categorical, Set: "A"},
		Def{Name: "setting", Kind: Categorical, Set: "A"},
	)
	ft := NewVector(s)
	ft.MustSet("profanity", CategoricalValue("true"))
	ft.MustSet("setting", CategoricalValue("outdoor"))
	fi := NewVector(s)
	fi.MustSet("profanity", CategoricalValue("false"))
	fi.MustSet("setting", CategoricalValue("outdoor"))
	if got := WeightedSimilarity(ft, fi, nil, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Weight = %v, want 0.5", got)
	}
}

func TestWeightSkipsMissing(t *testing.T) {
	s := testSchema(t)
	a, b := NewVector(s), NewVector(s)
	if got := WeightedSimilarity(a, b, nil, nil); got != 0 {
		t.Errorf("all-missing Weight = %v, want 0", got)
	}
	a.MustSet("reports", NumericValue(1))
	b.MustSet("reports", NumericValue(1))
	a.MustSet("topic", CategoricalValue("x")) // b's topic missing: ignored
	if got := WeightedSimilarity(a, b, Scales{"reports": 1}, nil); got != 1 {
		t.Errorf("Weight = %v, want 1 (only shared feature agrees)", got)
	}
}

func TestWeightBoundsProperty(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(42))
	randVec := func() *Vector {
		v := NewVector(s)
		if rng.Intn(4) > 0 {
			v.MustSet("topic", CategoricalValue(string(rune('a'+rng.Intn(4)))))
		}
		if rng.Intn(4) > 0 {
			v.MustSet("reports", NumericValue(rng.NormFloat64()*5))
		}
		if rng.Intn(4) > 0 {
			v.MustSet("emb", EmbeddingValue([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}))
		}
		return v
	}
	scales := Scales{"reports": 5}
	for i := 0; i < 500; i++ {
		a, b := randVec(), randVec()
		w, w2 := WeightedSimilarity(a, b, scales, nil), WeightedSimilarity(b, a, scales, nil)
		if w < 0 || w > 1 {
			t.Fatalf("Weight out of [0,1]: %v", w)
		}
		if math.Abs(w-w2) > 1e-12 {
			t.Fatalf("Weight not symmetric: %v vs %v", w, w2)
		}
	}
}

func TestFitScales(t *testing.T) {
	s := testSchema(t)
	var vecs []*Vector
	for _, x := range []float64{0, 10} {
		v := NewVector(s)
		v.MustSet("reports", NumericValue(x))
		vecs = append(vecs, v)
	}
	scales := FitScales(s, vecs)
	if math.Abs(scales["reports"]-5) > 1e-12 {
		t.Errorf("scale = %v, want 5 (mean abs deviation)", scales["reports"])
	}
	if _, ok := scales["topic"]; ok {
		t.Error("categorical feature should have no scale")
	}
	empty := FitScales(s, nil)
	if empty["reports"] != 1 {
		t.Errorf("empty-data scale = %v, want 1", empty["reports"])
	}
}

package feature

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func vecWith(t *testing.T, s *Schema, topic string, reports float64) *Vector {
	t.Helper()
	v := NewVector(s)
	v.MustSet("topic", CategoricalValue(topic))
	v.MustSet("reports", NumericValue(reports))
	return v
}

func TestVectorizerLayoutAndWidth(t *testing.T) {
	s := testSchema(t)
	train := []*Vector{
		vecWith(t, s, "sports", 0),
		vecWith(t, s, "news", 10),
	}
	vz := FitVectorizer(s, train)
	// topic: 2 vocab + OOV + missing = 4
	// objects: 0 vocab + OOV + missing = 2
	// reports: value + missing = 2
	// emb: 3 + missing = 4
	if vz.Width() != 12 {
		t.Fatalf("Width = %d, want 12", vz.Width())
	}
	start, end, ok := vz.FeatureSpan("reports")
	if !ok || end-start != 2 {
		t.Errorf("FeatureSpan(reports) = %d..%d,%v", start, end, ok)
	}
	if _, _, ok := vz.FeatureSpan("nope"); ok {
		t.Error("FeatureSpan should fail for unknown feature")
	}
}

func TestVectorizerOneHot(t *testing.T) {
	s := testSchema(t)
	train := []*Vector{
		vecWith(t, s, "sports", 0),
		vecWith(t, s, "news", 10),
	}
	vz := FitVectorizer(s, train)
	row := vz.Transform(train[0])
	start, _, _ := vz.FeatureSpan("topic")
	voc := vz.Vocabulary("topic")
	slot := slices.Index(voc.Words(), "sports")
	if slot < 0 {
		t.Fatal("sports not in vocabulary")
	}
	if row[start+slot] != 1 {
		t.Error("one-hot slot not set")
	}
	// OOV category lights the OOV slot, not a word slot.
	oov := vecWith(t, s, "zebra", 5)
	row = vz.Transform(oov)
	if row[start+voc.Len()] != 1 {
		t.Error("OOV slot not set")
	}
	// Missing categorical lights the missing indicator.
	missing := NewVector(s)
	row = vz.Transform(missing)
	if row[start+voc.Len()+1] != 1 {
		t.Error("missing indicator not set")
	}
}

func TestVectorizerStandardization(t *testing.T) {
	s := testSchema(t)
	train := []*Vector{
		vecWith(t, s, "a", 0),
		vecWith(t, s, "a", 10),
	}
	vz := FitVectorizer(s, train)
	start, _, _ := vz.FeatureSpan("reports")
	r0 := vz.Transform(train[0])[start]
	r1 := vz.Transform(train[1])[start]
	if math.Abs(r0+1) > 1e-9 || math.Abs(r1-1) > 1e-9 {
		t.Errorf("standardized values = %v, %v; want -1, +1", r0, r1)
	}
}

func TestVectorizerConstantNumeric(t *testing.T) {
	s := testSchema(t)
	train := []*Vector{vecWith(t, s, "a", 7), vecWith(t, s, "a", 7)}
	vz := FitVectorizer(s, train)
	start, _, _ := vz.FeatureSpan("reports")
	if got := vz.Transform(train[0])[start]; got != 0 {
		t.Errorf("constant feature should standardize to 0, got %v", got)
	}
}

func TestVectorizerEmbedding(t *testing.T) {
	s := testSchema(t)
	v := NewVector(s)
	v.MustSet("emb", EmbeddingValue([]float64{0.5, -1, 2}))
	vz := FitVectorizer(s, []*Vector{v})
	row := vz.Transform(v)
	start, _, _ := vz.FeatureSpan("emb")
	want := []float64{0.5, -1, 2, 0}
	for i, w := range want {
		if row[start+i] != w {
			t.Errorf("emb[%d] = %v, want %v", i, row[start+i], w)
		}
	}
	row = vz.Transform(NewVector(s))
	if row[start+3] != 1 {
		t.Error("embedding missing indicator not set")
	}
}

func TestVectorizerMaxVocabulary(t *testing.T) {
	s := testSchema(t)
	var train []*Vector
	// "common" appears 10 times, the rest once each.
	for i := 0; i < 10; i++ {
		train = append(train, vecWith(t, s, "common", 0))
	}
	for _, rare := range []string{"r1", "r2", "r3"} {
		train = append(train, vecWith(t, s, rare, 0))
	}
	vz := FitVectorizer(s, train, WithMaxVocabulary(2))
	voc := vz.Vocabulary("topic")
	if voc.Len() != 2 {
		t.Fatalf("vocab len = %d, want 2", voc.Len())
	}
	if !slices.Contains(voc.Words(), "common") {
		t.Error("most frequent category dropped by cap")
	}
}

func TestVectorizerTransformAllMatchesTransform(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	var train []*Vector
	for i := 0; i < 20; i++ {
		train = append(train, vecWith(t, s, string(rune('a'+rng.Intn(5))), rng.NormFloat64()))
	}
	vz := FitVectorizer(s, train)
	rows := vz.TransformAllWorkers(train, 0)
	for i, v := range train {
		single := vz.Transform(v)
		for j := range single {
			if rows[i][j] != single[j] {
				t.Fatalf("TransformAll[%d][%d] = %v, Transform = %v", i, j, rows[i][j], single[j])
			}
		}
	}
}

func TestVectorizerTransformIntoPanicsOnBadLength(t *testing.T) {
	s := testSchema(t)
	vz := FitVectorizer(s, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong row length")
		}
	}()
	vz.TransformInto(NewVector(s), make([]float64, 1))
}

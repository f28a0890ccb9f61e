package feature

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// fitSampleVectorizer builds a vectorizer over all three feature kinds with
// missing values sprinkled in.
func fitSampleVectorizer(t *testing.T, maxVoc int) (*Vectorizer, []*Vector) {
	t.Helper()
	schema := MustSchema(
		Def{Name: "topic", Kind: Categorical, Set: "C", Servable: true},
		Def{Name: "kw", Kind: Categorical, Set: "C", Servable: true},
		Def{Name: "score", Kind: Numeric, Set: "A", Servable: true},
		Def{Name: "emb", Kind: Embedding, Set: "I", Servable: true, Dim: 3},
	)
	rng := rand.New(rand.NewSource(42))
	var vecs []*Vector
	for i := 0; i < 200; i++ {
		v := NewVector(schema)
		if rng.Float64() < 0.9 {
			v.MustSet("topic", CategoricalValue(fmt.Sprintf("t%d", rng.Intn(7))))
		}
		if rng.Float64() < 0.8 {
			v.MustSet("kw", CategoricalValue(fmt.Sprintf("k%d", rng.Intn(30)), fmt.Sprintf("k%d", rng.Intn(30))))
		}
		if rng.Float64() < 0.95 {
			v.MustSet("score", NumericValue(rng.NormFloat64()*3+1))
		}
		if rng.Float64() < 0.7 {
			v.MustSet("emb", EmbeddingValue([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}))
		}
		vecs = append(vecs, v)
	}
	return FitVectorizer(schema, vecs, WithMaxVocabulary(maxVoc)), vecs
}

func TestVectorizerGobRoundTripExact(t *testing.T) {
	for _, maxVoc := range []int{0, 10} {
		t.Run(fmt.Sprintf("maxVoc=%d", maxVoc), func(t *testing.T) {
			vz, vecs := fitSampleVectorizer(t, maxVoc)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(vz); err != nil {
				t.Fatal(err)
			}
			var got Vectorizer
			if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.Width() != vz.Width() {
				t.Fatalf("width %d, want %d", got.Width(), vz.Width())
			}
			for i, v := range vecs {
				w, g := vz.Transform(v), got.Transform(v)
				for j := range w {
					if w[j] != g[j] {
						t.Fatalf("vector %d col %d: %v != %v", i, j, w[j], g[j])
					}
				}
			}
			// OOV and all-missing inputs must also encode identically.
			oov := NewVector(vz.Schema())
			oov.MustSet("topic", CategoricalValue("never-seen"))
			w, g := vz.Transform(oov), got.Transform(oov)
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("oov col %d: %v != %v", j, w[j], g[j])
				}
			}
		})
	}
}

func TestVectorizerGobDecodeRejectsGarbage(t *testing.T) {
	var vz Vectorizer
	if err := vz.GobDecode([]byte("garbage")); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

// TestVectorizerGobDecodeRejectionInternsNothing: indexing a vocabulary
// interns its words, so a payload that fails validation must be rejected
// before any vocabulary is indexed — including vocabularies for names the
// schema does not have.
func TestVectorizerGobDecodeRejectionInternsNothing(t *testing.T) {
	schema := MustSchema(
		Def{Name: "topic", Kind: Categorical, Set: "C"},
		Def{Name: "score", Kind: Numeric, Set: "A"},
	)
	schemaJSON, err := json.Marshal(schema)
	if err != nil {
		t.Fatal(err)
	}
	w := vectorizerWireV1{
		Version:    vectorizerWireVersion,
		SchemaJSON: schemaJSON,
		Vocabs: []vocabWire{
			{Name: "topic", Words: []string{"gob-reject-topic-a", "gob-reject-topic-b"}},
			{Name: "stray", Words: []string{"gob-reject-stray"}},
		},
		// No stats for "score": the payload must be rejected.
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	interned := InternCount()
	var vz Vectorizer
	if err := vz.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("payload without numeric stats accepted")
	}
	if got := InternCount(); got != interned {
		t.Fatalf("rejecting a vectorizer interned %d categories", got-interned)
	}
}

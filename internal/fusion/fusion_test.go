package fusion

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
)

var ctxbg = context.Background()

var schema = feature.MustSchema(
	feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
	feature.Def{Name: "score", Kind: feature.Numeric, Set: "A", Servable: true},
	feature.Def{Name: "emb", Kind: feature.Embedding, Set: "I", Servable: true, Dim: 4},
)

// corpusFor synthesizes a modality corpus: topic and score carry the signal;
// image points additionally carry an informative embedding.
func corpusFor(name string, n int, image bool, noise float64, seed int64) (Corpus, []int8) {
	rng := rand.New(rand.NewSource(seed))
	c := Corpus{Name: name}
	labels := make([]int8, n)
	for i := 0; i < n; i++ {
		v := feature.NewVector(schema)
		pos := rng.Float64() < 0.3
		topic := "benign"
		if pos && rng.Float64() > noise {
			topic = "risky"
		} else if !pos && rng.Float64() < noise/2 {
			topic = "risky"
		}
		v.MustSet("topic", feature.CategoricalValue(topic))
		base := 0.0
		if pos {
			base = 2
		}
		v.MustSet("score", feature.NumericValue(base+rng.NormFloat64()))
		if image {
			e := make([]float64, 4)
			for j := range e {
				e[j] = rng.NormFloat64() * 0.3
			}
			if pos {
				e[0] += 1.5
			}
			v.MustSet("emb", feature.EmbeddingValue(e))
		}
		c.Vectors = append(c.Vectors, v)
		if pos {
			c.Targets = append(c.Targets, 1)
			labels[i] = 1
		} else {
			c.Targets = append(c.Targets, 0)
			labels[i] = -1
		}
	}
	return c, labels
}

func baseConfig() Config {
	return Config{
		Schema: schema,
		Model:  model.Config{Hidden: []int{8}, Epochs: 6, Seed: 3, LearningRate: 0.02},
	}
}

func TestTrainEarly(t *testing.T) {
	text, _ := corpusFor("text", 1500, false, 0.1, 1)
	img, _ := corpusFor("image", 800, true, 0.15, 2)
	m, err := TrainEarly(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	test, labels := corpusFor("image-test", 600, true, 0.15, 3)
	auc := metrics.AUPRC(labels, m.PredictBatch(test.Vectors))
	if auc < 0.8 {
		t.Errorf("early fusion AUPRC = %.3f, want > 0.8", auc)
	}
}

func TestEarlyBeatsSingleModality(t *testing.T) {
	text, _ := corpusFor("text", 1500, false, 0.1, 4)
	img, _ := corpusFor("image", 400, true, 0.35, 5) // noisy, small image corpus
	test, labels := corpusFor("image-test", 800, true, 0.15, 6)

	both, err := TrainEarly(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	imgOnly, err := TrainEarly(ctxbg, []Corpus{img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	aucBoth := metrics.AUPRC(labels, both.PredictBatch(test.Vectors))
	aucImg := metrics.AUPRC(labels, imgOnly.PredictBatch(test.Vectors))
	if aucBoth < aucImg-0.02 {
		t.Errorf("joint training (%.3f) should not lose to image-only (%.3f)", aucBoth, aucImg)
	}
}

func TestTrainIntermediate(t *testing.T) {
	text, _ := corpusFor("text", 1200, false, 0.1, 7)
	img, _ := corpusFor("image", 800, true, 0.15, 8)
	m, err := TrainIntermediate(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	test, labels := corpusFor("image-test", 600, true, 0.15, 9)
	auc := metrics.AUPRC(labels, m.PredictBatch(test.Vectors))
	if auc < 0.7 {
		t.Errorf("intermediate fusion AUPRC = %.3f, want > 0.7", auc)
	}
}

func TestTrainDeViSE(t *testing.T) {
	text, _ := corpusFor("text", 1200, false, 0.1, 10)
	img, _ := corpusFor("image", 800, true, 0.15, 11)
	m, err := TrainDeViSE(ctxbg, []Corpus{text}, img, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	test, labels := corpusFor("image-test", 600, true, 0.15, 12)
	auc := metrics.AUPRC(labels, m.PredictBatch(test.Vectors))
	base := metrics.BaseRate(labels)
	if auc < base*1.3 {
		t.Errorf("DeViSE AUPRC = %.3f, want clearly above base rate %.3f", auc, base)
	}
}

func TestEarlyVsAlternativesOrdering(t *testing.T) {
	// The paper finds early fusion outperforms both alternatives (§6.6).
	text, _ := corpusFor("text", 1500, false, 0.1, 13)
	img, _ := corpusFor("image", 900, true, 0.2, 14)
	test, labels := corpusFor("image-test", 900, true, 0.15, 15)

	early, err := TrainEarly(ctxbg, []Corpus{text, img}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	devise, err := TrainDeViSE(ctxbg, []Corpus{text}, img, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	aucEarly := metrics.AUPRC(labels, early.PredictBatch(test.Vectors))
	aucDevise := metrics.AUPRC(labels, devise.PredictBatch(test.Vectors))
	if aucEarly < aucDevise-0.03 {
		t.Errorf("early fusion (%.3f) should not lose to DeViSE (%.3f)", aucEarly, aucDevise)
	}
}

func TestCorpusValidation(t *testing.T) {
	good, _ := corpusFor("ok", 10, false, 0.1, 16)
	cases := []struct {
		name    string
		corpora []Corpus
	}{
		{"no corpora", nil},
		{"empty corpus", []Corpus{{Name: "empty"}}},
		{"target mismatch", []Corpus{{Name: "bad", Vectors: good.Vectors, Targets: good.Targets[:2]}}},
	}
	for _, tc := range cases {
		if _, err := TrainEarly(ctxbg, tc.corpora, baseConfig()); err == nil {
			t.Errorf("TrainEarly %s: expected error", tc.name)
		}
		if _, err := TrainIntermediate(ctxbg, tc.corpora, baseConfig()); err == nil {
			t.Errorf("TrainIntermediate %s: expected error", tc.name)
		}
	}
	if _, err := TrainEarly(ctxbg, []Corpus{good}, Config{}); err == nil {
		t.Error("expected error for missing schema")
	}
}

func TestSchemaRestriction(t *testing.T) {
	// Restricting the end-model schema must drop the restricted features'
	// influence: a model limited to "score" cannot see topic or embedding.
	img, _ := corpusFor("image", 800, true, 0.0, 17)
	restricted := Config{
		Schema: schema.Sets("A"), // score only
		Model:  model.Config{Epochs: 5, Seed: 3},
	}
	m, err := TrainEarly(ctxbg, []Corpus{img}, restricted)
	if err != nil {
		t.Fatal(err)
	}
	// Two vectors differing only in topic/embedding must score equally.
	a := feature.NewVector(schema)
	a.MustSet("topic", feature.CategoricalValue("risky"))
	a.MustSet("score", feature.NumericValue(1))
	b := feature.NewVector(schema)
	b.MustSet("topic", feature.CategoricalValue("benign"))
	b.MustSet("score", feature.NumericValue(1))
	if m.Predict(a) != m.Predict(b) {
		t.Error("restricted model leaked excluded features")
	}
}

// TestPooledWithoutReprojectIsIdentical: training on vectors that carry the
// full library schema equals training on the same vectors reprojected onto
// the end-model schema first (what pooled used to do) — parameters and
// vocabularies to the last bit, for every architecture's scores too.
func TestPooledWithoutReprojectIsIdentical(t *testing.T) {
	text, _ := corpusFor("text", 300, false, 0.1, 23)
	img, _ := corpusFor("image", 300, true, 0.1, 24)
	cfg := baseConfig()
	cfg.Schema = feature.MustSchema(schema.Def(2), schema.Def(0)) // a strict sub-schema, reordered
	reprojected := func(c Corpus) Corpus {
		out := c
		out.Vectors = make([]*feature.Vector, len(c.Vectors))
		for i, v := range c.Vectors {
			out.Vectors[i] = v.Reproject(cfg.Schema)
		}
		return out
	}
	full, err := TrainEarly(ctxbg, []Corpus{text, img}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := TrainEarly(ctxbg, []Corpus{reprojected(text), reprojected(img)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := full.net.Params(), pre.net.Params()
	if len(a) != len(b) {
		t.Fatalf("%d params vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("param[%d] = %x without reprojection, %x with", j, a[j], b[j])
		}
	}
	if got, want := full.vz.Vocabulary("topic").Words(), pre.vz.Vocabulary("topic").Words(); !reflect.DeepEqual(got, want) {
		t.Fatalf("vocabulary %v without reprojection, %v with", got, want)
	}

	// Every predictor scores a full-schema vector as it scores its projection.
	inter, err := TrainIntermediate(ctxbg, []Corpus{text, img}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	devise, err := TrainDeViSE(ctxbg, []Corpus{text}, img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Predictor{full, inter, devise} {
		scores := p.PredictBatch(img.Vectors[:40])
		for i, v := range img.Vectors[:40] {
			if got := p.Predict(v.Reproject(cfg.Schema)); got != scores[i] {
				t.Fatalf("%T: vector %d scores %x on its own schema, %x reprojected", p, i, scores[i], got)
			}
		}
	}
}

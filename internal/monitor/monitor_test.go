package monitor

import (
	"math"
	"math/rand"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/synth"
)

// scripted is a deterministic predictor over a score table keyed by point
// index stored in the vector's "idx" numeric feature.
type scripted struct{ scores []float64 }

var testSchema = feature.MustSchema(feature.Def{Name: "idx", Kind: feature.Numeric, Set: "X", Servable: true})

func (s scripted) Predict(v *feature.Vector) float64 {
	return s.scores[int(v.Get("idx").Num)]
}

func (s scripted) PredictBatch(vs []*feature.Vector) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = s.Predict(v)
	}
	return out
}

// env builds synthetic traffic where the true label is known and two
// predictors with controlled quality: "good" scores positives higher with
// accuracy accGood; "bad" with accuracy accBad.
func env(t *testing.T, n int, posRate, accGood, accBad float64, seed int64) ([]*synth.Point, []*feature.Vector, scripted, scripted) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]*synth.Point, n)
	vecs := make([]*feature.Vector, n)
	good := scripted{scores: make([]float64, n)}
	bad := scripted{scores: make([]float64, n)}
	score := func(label int8, acc float64) float64 {
		correct := rng.Float64() < acc
		if (label > 0) == correct {
			return 0.6 + 0.4*rng.Float64()
		}
		return 0.4 * rng.Float64()
	}
	for i := 0; i < n; i++ {
		label := int8(-1)
		if rng.Float64() < posRate {
			label = 1
		}
		pts[i] = &synth.Point{ID: i, Label: label, Modality: synth.Image}
		v := feature.NewVector(testSchema)
		v.MustSet("idx", feature.NumericValue(float64(i)))
		vecs[i] = v
		good.scores[i] = score(label, accGood)
		bad.scores[i] = score(label, accBad)
	}
	return pts, vecs, good, bad
}

func truth(p *synth.Point) int8 { return p.Label }

func TestCompareRanksModels(t *testing.T) {
	pts, vecs, good, bad := env(t, 5000, 0.05, 0.95, 0.6, 1)
	comp, err := Compare("good", good, "bad", bad, pts, vecs, truth, Config{Budget: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if comp.A.Precision <= comp.B.Precision {
		t.Errorf("good model precision %.3f should beat bad %.3f", comp.A.Precision, comp.B.Precision)
	}
	if comp.Winner(0.02) != "good" {
		t.Errorf("Winner = %q, want good", comp.Winner(0.02))
	}
	if comp.Reviewed == 0 || comp.Reviewed > 600 {
		t.Errorf("reviewed = %d, want within budget", comp.Reviewed)
	}
	if comp.Disagreement <= 0 {
		t.Error("distinct models should disagree on some traffic")
	}
}

func TestCompareEstimatesPositiveRate(t *testing.T) {
	pts, vecs, good, bad := env(t, 8000, 0.08, 0.9, 0.7, 3)
	comp, err := Compare("a", good, "b", bad, pts, vecs, truth, Config{Budget: 1500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(comp.EstimatedPositiveRate-0.08) > 0.04 {
		t.Errorf("estimated positive rate %.3f, want ≈0.08 (HT weighting broken?)", comp.EstimatedPositiveRate)
	}
}

func TestCompareIdenticalModels(t *testing.T) {
	pts, vecs, good, _ := env(t, 2000, 0.1, 0.9, 0.9, 5)
	comp, err := Compare("a", good, "b", good, pts, vecs, truth, Config{Budget: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Disagreement != 0 {
		t.Errorf("identical models disagree %.3f", comp.Disagreement)
	}
	if comp.Winner(0.01) != "" {
		t.Errorf("Winner = %q, want tie", comp.Winner(0.01))
	}
	if comp.A.Precision != comp.B.Precision {
		t.Error("identical models should have identical estimates")
	}
}

// TestCompareIsBitDeterministic: one comparison repeated must return the same
// bits in every estimate — the lifecycle controller promotes on them and
// promises a bit-identical replay.
func TestCompareIsBitDeterministic(t *testing.T) {
	pts, vecs, good, bad := env(t, 3000, 0.08, 0.9, 0.7, 12)
	bits := func(c *Comparison) [5]uint64 {
		return [5]uint64{
			math.Float64bits(c.A.Precision), math.Float64bits(c.B.Precision),
			math.Float64bits(c.A.RecallProxy), math.Float64bits(c.B.RecallProxy),
			math.Float64bits(c.EstimatedPositiveRate),
		}
	}
	var first [5]uint64
	for i := 0; i < 100; i++ {
		comp, err := Compare("a", good, "b", bad, pts, vecs, truth, Config{Budget: 600, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = bits(comp)
		} else if got := bits(comp); got != first {
			t.Fatalf("call %d: estimate bits %x, first call %x", i, got, first)
		}
	}
}

// TestCompareScoredMatchesCompare: handing CompareScored model A's scores
// returns Compare's Comparison field for field, at default and custom
// thresholds and budgets — the lifecycle controller passes the served scores
// instead of re-scoring the incumbent.
func TestCompareScoredMatchesCompare(t *testing.T) {
	pts, vecs, good, bad := env(t, 3000, 0.08, 0.9, 0.7, 14)
	for _, cfg := range []Config{{Seed: 1}, {Budget: 600, Seed: 13}, {Budget: 150, Threshold: 0.72, Seed: 5}} {
		want, err := Compare("a", good, "b", bad, pts, vecs, truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompareScored("a", good.PredictBatch(vecs), "b", bad, pts, vecs, truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("%+v: CompareScored %+v, Compare %+v", cfg, *got, *want)
		}
	}
	if _, err := CompareScored("a", good.scores[:5], "b", bad, pts, vecs, truth, Config{}); err == nil {
		t.Error("expected error for a score per point missing")
	}
}

func TestCompareValidation(t *testing.T) {
	pts, vecs, good, bad := env(t, 10, 0.5, 0.9, 0.5, 7)
	if _, err := Compare("a", good, "b", bad, nil, nil, truth, Config{}); err == nil {
		t.Error("expected error for empty traffic")
	}
	if _, err := Compare("a", good, "b", bad, pts, vecs[:5], truth, Config{}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := Compare("a", good, "b", bad, pts, vecs, nil, Config{}); err == nil {
		t.Error("expected error for nil oracle")
	}
}

func TestBudgetCap(t *testing.T) {
	pts, vecs, good, bad := env(t, 100, 0.2, 0.9, 0.6, 8)
	comp, err := Compare("a", good, "b", bad, pts, vecs, truth, Config{Budget: 10000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Reviewed > 100 {
		t.Errorf("reviewed %d of 100 points", comp.Reviewed)
	}
}

func TestRecallProxyOrdering(t *testing.T) {
	pts, vecs, good, bad := env(t, 6000, 0.06, 0.95, 0.55, 10)
	comp, err := Compare("good", good, "bad", bad, pts, vecs, truth, Config{Budget: 1200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if comp.A.RecallProxy <= comp.B.RecallProxy {
		t.Errorf("good recall proxy %.3f should beat bad %.3f", comp.A.RecallProxy, comp.B.RecallProxy)
	}
	for _, est := range []ModelEstimate{comp.A, comp.B} {
		if est.RecallProxy < 0 || est.RecallProxy > 1 {
			t.Errorf("%s recall proxy %v out of [0,1]", est.Name, est.RecallProxy)
		}
	}
}

func TestSamplePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []int{1, 2, 3, 4, 5}
	got := samplePrefix(rng, pool, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatal("duplicate sample")
		}
		seen[v] = true
	}
	if got := samplePrefix(rng, pool, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := samplePrefix(rng, pool, 99); len(got) != 5 {
		t.Error("oversized k should return the whole pool")
	}
}

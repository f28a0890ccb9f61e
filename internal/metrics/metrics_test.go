package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusion(t *testing.T) {
	var c Confusion
	// 2 TP, 1 FP, 1 FN, 3 TN
	pairs := [][2]int8{{1, 1}, {1, 1}, {-1, 1}, {1, -1}, {-1, -1}, {-1, -1}, {-1, -1}}
	for _, p := range pairs {
		c.Add(p[0], p[1])
	}
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 3 {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.Precision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	if got := c.F1(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v", got)
	}
}

func TestConfusionZeroDivision(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should yield all zeros")
	}
}

func TestAUPRCPerfectClassifier(t *testing.T) {
	labels := []int8{1, 1, -1, -1, -1}
	scores := []float64{0.9, 0.8, 0.3, 0.2, 0.1}
	if got := AUPRC(labels, scores); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect AUPRC = %v, want 1", got)
	}
}

func TestAUPRCWorstClassifier(t *testing.T) {
	labels := []int8{-1, -1, -1, -1, 1}
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.1}
	// The single positive is ranked last: precision at its recall step is 1/5.
	if got := AUPRC(labels, scores); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("worst AUPRC = %v, want 0.2", got)
	}
}

func TestAUPRCRandomApproachesBaseRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	labels := make([]int8, n)
	scores := make([]float64, n)
	for i := range labels {
		if rng.Float64() < 0.1 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
		scores[i] = rng.Float64()
	}
	got := AUPRC(labels, scores)
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("random AUPRC = %v, want ≈ base rate 0.1", got)
	}
}

func TestAUPRCNoPositives(t *testing.T) {
	if got := AUPRC([]int8{-1, -1}, []float64{0.5, 0.6}); got != 0 {
		t.Errorf("no-positive AUPRC = %v, want 0", got)
	}
	if got := AUPRC(nil, nil); got != 0 {
		t.Errorf("empty AUPRC = %v, want 0", got)
	}
}

func TestAUPRCTieHandling(t *testing.T) {
	// All scores identical: a single step with precision = base rate.
	labels := []int8{1, -1, -1, -1}
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	if got := AUPRC(labels, scores); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("tied AUPRC = %v, want 0.25", got)
	}
}

func TestAUPRCBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		labels := make([]int8, len(raw))
		scores := make([]float64, len(raw))
		hasPos := false
		for i, r := range raw {
			if r%3 == 0 {
				labels[i] = 1
				hasPos = true
			} else {
				labels[i] = -1
			}
			scores[i] = float64(r%97) / 97
		}
		a := AUPRC(labels, scores)
		if !hasPos {
			return a == 0
		}
		return a >= 0 && a <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := make([]int8, 500)
	scores := make([]float64, 500)
	for i := range labels {
		labels[i] = int8(1 - 2*(rng.Intn(2)))
		scores[i] = rng.NormFloat64()
	}
	curve := PRCurve(labels, scores)
	for i := 1; i < len(curve); i++ {
		if curve[i].Recall < curve[i-1].Recall {
			t.Fatal("recall must be nondecreasing along the curve")
		}
		if curve[i].Threshold >= curve[i-1].Threshold {
			t.Fatal("thresholds must strictly decrease")
		}
	}
	if last := curve[len(curve)-1].Recall; math.Abs(last-1) > 1e-12 {
		t.Errorf("final recall = %v, want 1", last)
	}
}

func TestRelative(t *testing.T) {
	if got := Relative(1.5, 1.0); got != 1.5 {
		t.Errorf("Relative = %v", got)
	}
	if got := Relative(1.5, 0); got != 0 {
		t.Errorf("Relative with zero baseline = %v, want 0", got)
	}
}

func TestBaseRate(t *testing.T) {
	if got := BaseRate([]int8{1, -1, -1, -1}); got != 0.25 {
		t.Errorf("BaseRate = %v", got)
	}
}

func TestBootstrapAUPRC(t *testing.T) {
	labels := []int8{1, 1, 1, -1, -1, -1, -1, -1}
	scores := []float64{0.9, 0.8, 0.4, 0.6, 0.3, 0.2, 0.1, 0.05}
	mean, lo, hi := BootstrapAUPRC(labels, scores, 200, 1)
	if !(lo <= mean && mean <= hi) {
		t.Errorf("bootstrap ordering violated: lo=%v mean=%v hi=%v", lo, mean, hi)
	}
	point := AUPRC(labels, scores)
	if math.Abs(mean-point) > 0.2 {
		t.Errorf("bootstrap mean %v far from point estimate %v", mean, point)
	}
	if m, _, _ := BootstrapAUPRC(nil, nil, 10, 1); m != 0 {
		t.Error("empty bootstrap should be 0")
	}
}

// Edge-case coverage for the curves the serving canary validation reuses
// (internal/serve validates reloaded models on a labeled canary batch).

func TestPRCurveEmptyInput(t *testing.T) {
	if got := PRCurve(nil, nil); got != nil {
		t.Errorf("empty PRCurve = %v, want nil", got)
	}
	if got := AUPRC(nil, nil); got != 0 {
		t.Errorf("empty AUPRC = %v, want 0", got)
	}
}

func TestPRCurveSingleClass(t *testing.T) {
	// All-negative labels: no positives → nil curve, 0 AUPRC.
	if got := PRCurve([]int8{-1, -1, -1}, []float64{0.1, 0.5, 0.9}); got != nil {
		t.Errorf("all-negative PRCurve = %v, want nil", got)
	}
	// All-positive labels: precision pinned at 1 for every threshold.
	curve := PRCurve([]int8{1, 1, 1}, []float64{0.9, 0.5, 0.1})
	if len(curve) != 3 {
		t.Fatalf("all-positive curve has %d points, want 3", len(curve))
	}
	for _, pt := range curve {
		if pt.Precision != 1 {
			t.Errorf("all-positive precision = %v at threshold %v", pt.Precision, pt.Threshold)
		}
	}
	if last := curve[len(curve)-1]; last.Recall != 1 {
		t.Errorf("all-positive final recall = %v, want 1", last.Recall)
	}
	if auc := AUPRC([]int8{1, 1, 1}, []float64{0.9, 0.5, 0.1}); auc != 1 {
		t.Errorf("all-positive AUPRC = %v, want 1", auc)
	}
}

func TestPRCurveNaNScores(t *testing.T) {
	// Before the NaN fix this looped forever: NaN == NaN is false, so the
	// tie-group scan never advanced. NaN scores now sink below every real
	// score as one tie group.
	nan := math.NaN()
	labels := []int8{1, -1, 1, -1}
	scores := []float64{0.9, 0.4, nan, nan}
	curve := PRCurve(labels, scores)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points, want 3 (0.9, 0.4, NaN group): %v", len(curve), curve)
	}
	if curve[0].Threshold != 0.9 || curve[0].Precision != 1 {
		t.Errorf("first point %+v, want threshold 0.9 precision 1", curve[0])
	}
	if !math.IsNaN(curve[2].Threshold) {
		t.Errorf("last threshold %v, want NaN group", curve[2].Threshold)
	}
	if curve[2].Recall != 1 {
		t.Errorf("final recall %v, want 1 (NaN points still counted)", curve[2].Recall)
	}
	// All-NaN scores: one tie group holding everything.
	curve = PRCurve([]int8{1, -1}, []float64{nan, nan})
	if len(curve) != 1 || curve[0].Recall != 1 || curve[0].Precision != 0.5 {
		t.Errorf("all-NaN curve = %+v, want one point r=1 p=0.5", curve)
	}
	// AUPRC must stay finite with NaNs present.
	if auc := AUPRC(labels, scores); math.IsNaN(auc) || auc < 0 || auc > 1 {
		t.Errorf("AUPRC with NaN scores = %v, want finite in [0,1]", auc)
	}
}

func TestConfusionEmptyAndSingleClass(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Errorf("zero confusion should report all-zero metrics: %v", c)
	}
	// Single-class all-negative stream: everything lands in TN/FP.
	var neg Confusion
	for _, pred := range []int8{-1, 1, -1} {
		neg.Add(-1, pred)
	}
	if neg.TP != 0 || neg.FN != 0 || neg.TN != 2 || neg.FP != 1 {
		t.Errorf("all-negative confusion = %+v", neg)
	}
	if neg.Recall() != 0 || neg.F1() != 0 {
		t.Errorf("all-negative recall/F1 should be 0: %v", neg)
	}
	// Single-class all-positive stream: everything lands in TP/FN.
	var pos Confusion
	for _, pred := range []int8{1, -1, 1} {
		pos.Add(1, pred)
	}
	if pos.TP != 2 || pos.FN != 1 || pos.FP != 0 || pos.TN != 0 {
		t.Errorf("all-positive confusion = %+v", pos)
	}
	if pos.Precision() != 1 {
		t.Errorf("all-positive precision = %v, want 1", pos.Precision())
	}
}

package model

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crossmodal/internal/metrics"
	"crossmodal/internal/sparse"
)

var ctxbg = context.Background()

// linearData generates a linearly separable-ish problem with label noise.
func linearData(n, dim int, noise float64, seed int64) ([][]float64, []float64, []int8) {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	X := make([][]float64, n)
	targets := make([]float64, n)
	labels := make([]int8, n)
	for i := range X {
		x := make([]float64, dim)
		var z float64
		for j := range x {
			x[j] = rng.NormFloat64()
			z += w[j] * x[j]
		}
		X[i] = x
		y := z+rng.NormFloat64()*noise > 0
		if y {
			targets[i], labels[i] = 1, 1
		} else {
			targets[i], labels[i] = 0, -1
		}
	}
	return X, targets, labels
}

// xorData generates the classic non-linear XOR problem.
func xorData(n int, seed int64) ([][]float64, []float64, []int8) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	targets := make([]float64, n)
	labels := make([]int8, n)
	for i := range X {
		a, b := rng.Float64() > 0.5, rng.Float64() > 0.5
		x := []float64{-1, -1}
		if a {
			x[0] = 1
		}
		if b {
			x[1] = 1
		}
		x[0] += rng.NormFloat64() * 0.2
		x[1] += rng.NormFloat64() * 0.2
		X[i] = x
		if a != b {
			targets[i], labels[i] = 1, 1
		} else {
			targets[i], labels[i] = 0, -1
		}
	}
	return X, targets, labels
}

func aucOf(t *testing.T, m *MLP, X [][]float64, labels []int8) float64 {
	t.Helper()
	return metrics.AUPRC(labels, m.PredictBatch(X))
}

func TestLogisticRegressionLearnsLinear(t *testing.T) {
	X, targets, labels := linearData(2000, 8, 0.2, 1)
	m, err := Train(ctxbg, X, targets, nil, Config{Seed: 2, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, m, X, labels); auc < 0.93 {
		t.Errorf("LR train AUPRC = %.3f, want > 0.93", auc)
	}
	Xt, _, lt := linearData(1000, 8, 0.2, 99)
	if auc := aucOf(t, m, Xt, lt); auc < 0.5 {
		// Different seed draws different true weights, so only check
		// it is not degenerate on its own distribution shape.
		t.Logf("held-out different-weights AUPRC = %.3f (informational)", auc)
	}
}

func TestMLPSolvesXOR(t *testing.T) {
	X, targets, labels := xorData(1500, 3)
	lr, err := Train(ctxbg, X, targets, nil, Config{Seed: 4, Epochs: 15})
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := Train(ctxbg, X, targets, nil, Config{Hidden: []int{16}, Seed: 4, Epochs: 30, LearningRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	lrAUC, mlpAUC := aucOf(t, lr, X, labels), aucOf(t, mlp, X, labels)
	if mlpAUC < 0.95 {
		t.Errorf("MLP XOR AUPRC = %.3f, want > 0.95", mlpAUC)
	}
	if mlpAUC <= lrAUC {
		t.Errorf("MLP (%.3f) should beat LR (%.3f) on XOR", mlpAUC, lrAUC)
	}
}

func TestTrainSoftTargets(t *testing.T) {
	// Probabilistic labels: target 0.8 vs 0.2 along one feature.
	X := [][]float64{{1}, {1}, {-1}, {-1}}
	targets := []float64{0.8, 0.8, 0.2, 0.2}
	m, err := Train(ctxbg, X, targets, nil, Config{Seed: 1, Epochs: 800, BatchSize: 4, LearningRate: 0.05, L2: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	pPos := m.PredictProba([]float64{1})
	pNeg := m.PredictProba([]float64{-1})
	if math.Abs(pPos-0.8) > 0.1 || math.Abs(pNeg-0.2) > 0.1 {
		t.Errorf("soft-target calibration: p(+)=%.3f (want ≈0.8), p(-)=%.3f (want ≈0.2)", pPos, pNeg)
	}
}

func TestTrainSampleWeights(t *testing.T) {
	// Conflicting examples at the same x; weights should decide.
	X := [][]float64{{1}, {1}}
	targets := []float64{1, 0}
	m, err := Train(ctxbg, X, targets, []float64{10, 0.1}, Config{Seed: 1, Epochs: 200, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.PredictProba([]float64{1}); p < 0.7 {
		t.Errorf("weighted training ignored weights: p = %.3f", p)
	}
}

func TestTrainValidation(t *testing.T) {
	X := [][]float64{{1}}
	cases := []struct {
		name    string
		X       [][]float64
		targets []float64
		weights []float64
	}{
		{"empty", nil, nil, nil},
		{"target mismatch", X, []float64{1, 0}, nil},
		{"weight mismatch", X, []float64{1}, []float64{1, 2}},
		{"target out of range", X, []float64{1.5}, nil},
		{"target NaN", X, []float64{math.NaN()}, nil},
	}
	for _, tc := range cases {
		if _, err := Train(ctxbg, tc.X, tc.targets, tc.weights, Config{}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New(0, nil, 1); err == nil {
		t.Error("New(0 dims) should fail")
	}
	if _, err := New(3, []int{0}, 1); err == nil {
		t.Error("New with zero hidden width should fail")
	}
}

func TestPredictProbaPanicsOnWidth(t *testing.T) {
	m, _ := New(3, nil, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input width")
		}
	}()
	m.PredictProba([]float64{1})
}

func TestHiddenActivation(t *testing.T) {
	lr, _ := New(4, nil, 1)
	x := []float64{1, 2, 3, 4}
	var rows sparse.Rows
	rows.Reset(4)
	rows.AddDense(x)
	cols, vals := rows.Row(0)
	h := lr.Hidden(cols, vals)
	if len(h) != 4 {
		t.Fatalf("LR hidden dim = %d, want input dim 4", len(h))
	}
	if lr.HiddenDim() != 4 {
		t.Errorf("HiddenDim = %d", lr.HiddenDim())
	}
	mlp, _ := New(4, []int{7}, 1)
	h = mlp.Hidden(cols, vals)
	if len(h) != 7 || mlp.HiddenDim() != 7 {
		t.Fatalf("MLP hidden dim = %d/%d, want 7", len(h), mlp.HiddenDim())
	}
	// PredictFromHidden(Hidden(x)) must equal PredictProba(x).
	if got, want := mlp.PredictFromHidden(h), mlp.PredictProba(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("PredictFromHidden = %v, PredictProba = %v", got, want)
	}
}

func TestTrainDeterministic(t *testing.T) {
	X, targets, _ := linearData(500, 4, 0.3, 7)
	a, _ := Train(ctxbg, X, targets, nil, Config{Seed: 11, Epochs: 3})
	b, _ := Train(ctxbg, X, targets, nil, Config{Seed: 11, Epochs: 3})
	for i := 0; i < 10; i++ {
		if a.PredictProba(X[i]) != b.PredictProba(X[i]) {
			t.Fatal("training not deterministic for equal seeds")
		}
	}
}

func TestPositiveWeightShiftsScores(t *testing.T) {
	// Imbalanced data: upweighting positives should raise positive-class
	// scores.
	X, targets, _ := linearData(2000, 4, 0.5, 13)
	// Make it imbalanced by flipping most positives to negatives.
	rng := rand.New(rand.NewSource(5))
	for i := range targets {
		if targets[i] == 1 && rng.Float64() < 0.8 {
			targets[i] = 0
		}
	}
	plain, _ := Train(ctxbg, X, targets, nil, Config{Seed: 3, Epochs: 5})
	boosted, _ := Train(ctxbg, X, targets, nil, Config{Seed: 3, Epochs: 5, PositiveWeight: 8})
	var meanPlain, meanBoost float64
	for i := range X {
		meanPlain += plain.PredictProba(X[i])
		meanBoost += boosted.PredictProba(X[i])
	}
	if meanBoost <= meanPlain {
		t.Errorf("PositiveWeight did not raise mean score: %.4f vs %.4f",
			meanBoost/float64(len(X)), meanPlain/float64(len(X)))
	}
}

func TestFitProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// dst = A·src + c, recoverable exactly.
	A := [][]float64{{1, -2}, {0.5, 3}}
	c := []float64{0.3, -0.7}
	var src, dst [][]float64
	for i := 0; i < 400; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := []float64{
			A[0][0]*x[0] + A[0][1]*x[1] + c[0],
			A[1][0]*x[0] + A[1][1]*x[1] + c[1],
		}
		src = append(src, x)
		dst = append(dst, y)
	}
	p, err := FitProjection(ctxbg, src, dst, 40, 0.05, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range src {
		got := p.Apply(src[i])
		for j := range got {
			d := got[j] - dst[i][j]
			mse += d * d
		}
	}
	mse /= float64(len(src))
	if mse > 0.01 {
		t.Errorf("projection MSE = %.5f, want < 0.01", mse)
	}
	if _, err := FitProjection(ctxbg, nil, nil, 1, 1, 1, 1); err == nil {
		t.Error("expected error for empty projection data")
	}
}

package labelmodel

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crossmodal/internal/lf"
)

var ctxbg = context.Background()

// plant builds a vote matrix from true labels and per-LF accuracies and
// propensities (propensity is label-independent here).
func plant(n int, accs, props []float64, posRate float64, seed int64) (*lf.Matrix, []int8) {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int8, n)
	votes := make([][]int8, n)
	names := make([]string, len(accs))
	for j := range names {
		names[j] = "lf" + string(rune('A'+j))
	}
	for i := 0; i < n; i++ {
		labels[i] = -1
		if rng.Float64() < posRate {
			labels[i] = 1
		}
		row := make([]int8, len(accs))
		for j := range accs {
			if rng.Float64() >= props[j] {
				continue // abstain
			}
			if rng.Float64() < accs[j] {
				row[j] = labels[i]
			} else {
				row[j] = -labels[i]
			}
		}
		votes[i] = row
	}
	return &lf.Matrix{Votes: votes, Names: names}, labels
}

func TestFitRecoversAccuracies(t *testing.T) {
	accs := []float64{0.9, 0.75, 0.6}
	props := []float64{0.8, 0.7, 0.9}
	m, _ := plant(20000, accs, props, 0.5, 1)
	model, err := FitGenerative(ctxbg, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range accs {
		if got := model.Accuracy(j); math.Abs(got-want) > 0.05 {
			t.Errorf("accuracy[%d] = %.3f, want ≈%.3f", j, got, want)
		}
	}
	for j, want := range props {
		// The implied vote rate P(vote ≠ 0) under the learned parameters.
		got := 1 - (model.Prior*model.ThetaPos[j][2] + (1-model.Prior)*model.ThetaNeg[j][2])
		if math.Abs(got-want) > 0.03 {
			t.Errorf("propensity[%d] = %.3f, want ≈%.3f", j, got, want)
		}
	}
	if math.Abs(model.Prior-0.5) > 0.05 {
		t.Errorf("learned prior = %.3f, want ≈0.5", model.Prior)
	}
}

func TestFitImbalancedWithClassBalance(t *testing.T) {
	accs := []float64{0.85, 0.8, 0.7, 0.65}
	props := []float64{0.6, 0.5, 0.7, 0.4}
	m, labels := plant(30000, accs, props, 0.05, 2)
	model, err := FitGenerative(ctxbg, m, Config{ClassBalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := model.Predict(m)
	if err != nil {
		t.Fatal(err)
	}
	// The model's probabilistic labels must beat majority vote on
	// agreement with truth among covered points.
	mv := MajorityVote(m)
	covered := Covered(m)
	var modelRight, mvRight, tot float64
	for i := range labels {
		if !covered[i] {
			continue
		}
		tot++
		if (probs[i] >= 0.5) == (labels[i] > 0) {
			modelRight++
		}
		if (mv[i] >= 0.5) == (labels[i] > 0) {
			mvRight++
		}
	}
	if modelRight < mvRight {
		t.Errorf("generative model accuracy %.4f below majority vote %.4f", modelRight/tot, mvRight/tot)
	}
	if model.Prior != 0.05 {
		t.Errorf("fixed prior changed: %v", model.Prior)
	}
}

// TestLowPrecisionHighLiftLF plants the imbalanced regime the paper's mined
// LFs live in: an LF firing on 30% of positives and 1% of negatives at a 4%
// base rate has precision ~0.55 but a 30x likelihood ratio; the model must
// credit its positive votes.
func TestLowPrecisionHighLiftLF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 30000
	votes := make([][]int8, n)
	labels := make([]int8, n)
	for i := 0; i < n; i++ {
		labels[i] = -1
		if rng.Float64() < 0.04 {
			labels[i] = 1
		}
		row := make([]int8, 2)
		// LF0: positive detector, fires + on 30% of positives, 1% of negs.
		if labels[i] > 0 && rng.Float64() < 0.3 || labels[i] < 0 && rng.Float64() < 0.01 {
			row[0] = 1
		}
		// LF1: negative detector, fires - on 20% of negs, 2% of positives.
		if labels[i] < 0 && rng.Float64() < 0.2 || labels[i] > 0 && rng.Float64() < 0.02 {
			row[1] = -1
		}
		votes[i] = row
	}
	m := &lf.Matrix{Votes: votes, Names: []string{"pos", "neg"}}
	model, err := FitGenerative(ctxbg, m, Config{ClassBalance: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := model.Predict(m)
	if err != nil {
		t.Fatal(err)
	}
	// Points where the positive LF fired should get posteriors far above
	// the prior.
	var fired, firedSum, quiet, quietSum float64
	for i := range probs {
		if votes[i][0] > 0 {
			fired++
			firedSum += probs[i]
		} else {
			quiet++
			quietSum += probs[i]
		}
	}
	if firedSum/fired < 5*0.04 {
		t.Errorf("posterior on fired points %.3f should be >> prior 0.04", firedSum/fired)
	}
	if quietSum/quiet > 0.1 {
		t.Errorf("posterior on quiet points %.3f should stay near prior", quietSum/quiet)
	}
}

func TestPosteriorWeighsAccurateLFsMore(t *testing.T) {
	accs := []float64{0.95, 0.6, 0.9}
	props := []float64{0.9, 0.9, 0.9}
	m, _ := plant(20000, accs, props, 0.5, 3)
	model, err := FitGenerative(ctxbg, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if model.Accuracy(0) <= model.Accuracy(1) {
		t.Fatalf("EM did not order accuracies: %v vs %v", model.Accuracy(0), model.Accuracy(1))
	}
	// Conflict rows: LF0 says +, LF1 says -, LF2 abstains.
	conflict := &lf.Matrix{Votes: [][]int8{{1, -1, 0}}, Names: m.Names}
	probs, err := model.Predict(conflict)
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] <= 0.5 {
		t.Errorf("conflict posterior %.3f should side with the accurate LF", probs[0])
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	model := &Model{ThetaPos: make([][3]float64, 1), ThetaNeg: make([][3]float64, 1), Prior: 0.5}
	m := &lf.Matrix{Votes: [][]int8{{1, -1}}, Names: []string{"a", "b"}}
	if _, err := model.Predict(m); err == nil {
		t.Error("expected LF-count mismatch error")
	}
}

func TestFitEmptyMatrix(t *testing.T) {
	if _, err := FitGenerative(ctxbg, &lf.Matrix{}, Config{}); err == nil {
		t.Error("expected error for empty matrix")
	}
}

func TestAdversarialLFDoesNotPoisonModel(t *testing.T) {
	// One good LF and one anti-correlated LF: overall prediction quality
	// must remain high (the model may legitimately invert the bad LF).
	accs := []float64{0.9, 0.15}
	props := []float64{0.9, 0.9}
	m, labels := plant(10000, accs, props, 0.5, 4)
	model, err := FitGenerative(ctxbg, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	probs, _ := model.Predict(m)
	right := 0
	for i := range labels {
		if (probs[i] >= 0.5) == (labels[i] > 0) {
			right++
		}
	}
	if acc := float64(right) / float64(len(labels)); acc < 0.85 {
		t.Errorf("model accuracy %.3f with adversarial LF, want > 0.85", acc)
	}
}

func TestMajorityVote(t *testing.T) {
	m := &lf.Matrix{Votes: [][]int8{
		{1, 1, -1},
		{0, 0, 0},
		{-1, -1, 0},
	}, Names: []string{"a", "b", "c"}}
	got := MajorityVote(m)
	want := []float64{(1 + 1.0/3) / 2, 0.5, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MajorityVote[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	m := &lf.Matrix{Votes: [][]int8{{0, 0}, {0, 1}}, Names: []string{"a", "b"}}
	got := Covered(m)
	if got[0] || !got[1] {
		t.Errorf("Covered = %v", got)
	}
}

func TestFitConvergesAndStops(t *testing.T) {
	m, _ := plant(5000, []float64{0.9, 0.8}, []float64{0.9, 0.9}, 0.5, 5)
	model, err := FitGenerative(ctxbg, m, Config{maxIters: 500, tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if model.Iters >= 500 {
		t.Errorf("EM did not converge in %d iterations", model.Iters)
	}
}

func TestFitDeterministic(t *testing.T) {
	m, _ := plant(3000, []float64{0.9, 0.7}, []float64{0.8, 0.8}, 0.3, 6)
	a, _ := FitGenerative(ctxbg, m, Config{})
	b, _ := FitGenerative(ctxbg, m, Config{})
	for j := range a.ThetaPos {
		if a.ThetaPos[j] != b.ThetaPos[j] || a.ThetaNeg[j] != b.ThetaNeg[j] {
			t.Fatal("EM not deterministic")
		}
	}
}

// TestPosteriorMatchesPerRowLogs: reading log θ from the per-call table sums
// the same floats in the same order as taking both logs per (row, LF), so
// the posteriors are bit-identical.
func TestPosteriorMatchesPerRowLogs(t *testing.T) {
	m, _ := plant(3000, []float64{0.9, 0.7, 0.55, 0.8, 0.95}, []float64{0.3, 0.6, 0.9, 0.05, 0.01}, 0.1, 23)
	fitted, err := FitGenerative(ctxbg, m, Config{maxIters: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m.NumPoints())
	fitted.posterior(m, got)
	for i, row := range m.Votes {
		lp, ln := math.Log(fitted.Prior), math.Log(1-fitted.Prior)
		for j, v := range row {
			lp += math.Log(fitted.ThetaPos[j][voteIndex(v)])
			ln += math.Log(fitted.ThetaNeg[j][voteIndex(v)])
		}
		if want := 1 / (1 + math.Exp(ln-lp)); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: posterior %v, per-row logs %v", i, got[i], want)
		}
	}
}

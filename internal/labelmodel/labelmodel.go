// Package labelmodel implements the weak-supervision generative model that
// denoises labeling-function votes into probabilistic training labels
// (paper §4.1, step 3; the stand-in for Snorkel Drybell's generative model).
//
// The model is the conditionally-independent LF model: for each LF j and
// each class y ∈ {+1, -1}, an unknown multinomial θ_j(v | y) over votes
// v ∈ {+1, -1, abstain}. This class-conditional parameterization matters in
// the paper's heavily class-imbalanced tasks: a positive LF that fires on
// 25% of positives but only 1% of negatives has low raw precision at a 4%
// base rate yet carries a 25× likelihood ratio — exactly the kind of LF
// frequent itemset mining produces. Parameters are estimated from the
// agreement structure of the vote matrix by expectation-maximization,
// without ground-truth labels; the fitted model returns each point's
// posterior P(y = +1 | votes), the probabilistic label used to train the
// discriminative end model with a noise-aware loss.
package labelmodel

import (
	"context"
	"fmt"
	"math"

	"crossmodal/internal/lf"
	"crossmodal/internal/trace"
)

// Config controls EM fitting.
type Config struct {
	// ClassBalance fixes the prior P(y=+1). Weak-supervision deployments
	// on imbalanced tasks supply this (it is far easier to estimate than
	// labels); <= 0 lets EM learn it.
	ClassBalance float64

	// maxIters bounds EM iterations (default 100); tol stops EM when the
	// largest parameter change falls below it (default 1e-5). Only this
	// package's tests set them.
	maxIters int
	tol      float64
}

// smoothing is the Dirichlet pseudo-count added in the M step. It also
// encodes the better-than-random prior: the pseudo-count mass for an LF's
// "correct" vote is doubled.
const smoothing = 1.0

func (c Config) withDefaults() Config {
	if c.maxIters <= 0 {
		c.maxIters = 100
	}
	if c.tol <= 0 {
		c.tol = 1e-5
	}
	return c
}

// voteIndex maps a vote to a θ slot.
func voteIndex(v int8) int {
	switch {
	case v > 0:
		return 0
	case v < 0:
		return 1
	default:
		return 2
	}
}

// Model is a fitted generative label model.
type Model struct {
	// ThetaPos[j] and ThetaNeg[j] are LF j's vote distributions
	// [P(+1|y), P(-1|y), P(abstain|y)] conditioned on y=+1 and y=-1.
	ThetaPos, ThetaNeg [][3]float64
	// Prior is P(y = +1).
	Prior float64
	// Iters is how many EM iterations ran.
	Iters int
	// Names are the LF names, aligned with the parameters.
	Names []string
}

// Accuracy returns LF j's implied accuracy P(vote = y | vote ≠ 0) under the
// model and its prior — the scalar Snorkel-style diagnostic.
func (mod *Model) Accuracy(j int) float64 {
	p := mod.Prior
	correct := float64(p*mod.ThetaPos[j][0]) + float64((1-p)*mod.ThetaNeg[j][1])
	voted := float64(p*(mod.ThetaPos[j][0]+mod.ThetaPos[j][1])) + float64((1-p)*(mod.ThetaNeg[j][0]+mod.ThetaNeg[j][1]))
	if voted == 0 {
		return 0
	}
	return correct / voted
}

// FitGenerative fits the model to a vote matrix by EM.
func FitGenerative(ctx context.Context, m *lf.Matrix, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	n, k := m.NumPoints(), m.NumLFs()
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("labelmodel: empty vote matrix (%dx%d)", n, k)
	}
	_, span := trace.Start(ctx, "labelmodel.em")
	defer span.End()
	span.SetInt("points", int64(n))
	span.SetInt("lfs", int64(k))
	model := &Model{
		ThetaPos: make([][3]float64, k),
		ThetaNeg: make([][3]float64, k),
		Prior:    cfg.ClassBalance,
		Names:    append([]string(nil), m.Names...),
	}
	if model.Prior <= 0 || model.Prior >= 1 {
		model.Prior = 0.5
	}
	defer func() { span.SetInt("iters", int64(model.Iters)) }()

	// Initialization: each LF's empirical vote distribution, tilted toward
	// correctness (an LF's vote is assumed more likely under the matching
	// class — the better-than-random assumption).
	for j := 0; j < k; j++ {
		var counts [3]float64
		for i := 0; i < n; i++ {
			counts[voteIndex(m.Votes[i][j])]++
		}
		total := counts[0] + counts[1] + counts[2] + 3
		const tilt = 3
		model.ThetaPos[j] = normalize3([3]float64{
			(counts[0] + 1) * tilt, counts[1] + 1, counts[2] + 1,
		}, total+(tilt-1)*(counts[0]+1))
		model.ThetaNeg[j] = normalize3([3]float64{
			counts[0] + 1, (counts[1] + 1) * tilt, counts[2] + 1,
		}, total+(tilt-1)*(counts[1]+1))
	}

	post := make([]float64, n)
	for iter := 1; iter <= cfg.maxIters; iter++ {
		model.Iters = iter
		model.posterior(m, post)

		var maxDelta float64
		if cfg.ClassBalance <= 0 {
			var sum float64
			for _, p := range post {
				sum += p
			}
			newPrior := clamp(sum/float64(n), 0.001, 0.999)
			maxDelta = math.Abs(newPrior - model.Prior)
			model.Prior = newPrior
		}
		for j := 0; j < k; j++ {
			// Pseudo-counts: smoothing for every vote, as much again on the
			// class-correct vote.
			pos := [3]float64{2 * smoothing, smoothing, smoothing}
			neg := [3]float64{smoothing, 2 * smoothing, smoothing}
			for i := 0; i < n; i++ {
				vi := voteIndex(m.Votes[i][j])
				pos[vi] += post[i]
				neg[vi] += 1 - post[i]
			}
			newPos := normalize3(pos, pos[0]+pos[1]+pos[2])
			newNeg := normalize3(neg, neg[0]+neg[1]+neg[2])
			newPos, newNeg = enforceBetterThanRandom(newPos, newNeg)
			for v := 0; v < 3; v++ {
				maxDelta = math.Max(maxDelta, math.Abs(newPos[v]-model.ThetaPos[j][v]))
				maxDelta = math.Max(maxDelta, math.Abs(newNeg[v]-model.ThetaNeg[j][v]))
			}
			model.ThetaPos[j], model.ThetaNeg[j] = newPos, newNeg
		}
		if maxDelta < cfg.tol {
			break
		}
	}
	return model, nil
}

// enforceBetterThanRandom projects the vote distributions onto the
// weak-supervision assumption that no LF's vote is evidence *against* the
// class it names: P(vote=+1|y=+1) >= P(vote=+1|y=-1) and symmetrically for
// negative votes. Without this constraint, EM can invert a sparse positive
// LF in a heavily imbalanced matrix (nothing corroborates it, so explaining
// its votes as noise raises the likelihood) — the exact regime of mined LFs
// over mutually exclusive category values.
func enforceBetterThanRandom(pos, neg [3]float64) ([3]float64, [3]float64) {
	if pos[0] < neg[0] {
		m := math.Sqrt(pos[0] * neg[0])
		pos[0], neg[0] = m, m
	}
	if neg[1] < pos[1] {
		m := math.Sqrt(pos[1] * neg[1])
		pos[1], neg[1] = m, m
	}
	pos = normalize3(pos, pos[0]+pos[1]+pos[2])
	neg = normalize3(neg, neg[0]+neg[1]+neg[2])
	return pos, neg
}

func normalize3(v [3]float64, total float64) [3]float64 {
	if total <= 0 {
		return [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	return [3]float64{v[0] / total, v[1] / total, v[2] / total}
}

// posterior fills out[i] = P(y_i = +1 | votes_i) under the current
// parameters, in log space for stability. Abstains carry (weak) evidence
// through the abstain slots of θ. θ has three values per LF and class, so
// their logs are taken once per call into a table, not once per row.
func (mod *Model) posterior(m *lf.Matrix, out []float64) {
	logPrior := math.Log(mod.Prior)
	logPriorNeg := math.Log(1 - mod.Prior)
	logs := make([][2][3]float64, len(mod.ThetaPos)) // [j][class][vote]: log θ
	for j := range logs {
		for v := 0; v < 3; v++ {
			logs[j][0][v] = math.Log(mod.ThetaPos[j][v])
			logs[j][1][v] = math.Log(mod.ThetaNeg[j][v])
		}
	}
	for i := range m.Votes {
		lp, ln := logPrior, logPriorNeg
		for j, v := range m.Votes[i] {
			vi := voteIndex(v)
			lp += logs[j][0][vi]
			ln += logs[j][1][vi]
		}
		out[i] = 1 / (1 + math.Exp(ln-lp))
	}
}

func clamp(x, lo, hi float64) float64 {
	return math.Min(math.Max(x, lo), hi)
}

// Predict returns the posterior probabilistic labels P(y=+1|votes) for every
// row of the matrix.
func (mod *Model) Predict(m *lf.Matrix) ([]float64, error) {
	if m.NumLFs() != len(mod.ThetaPos) {
		return nil, fmt.Errorf("labelmodel: matrix has %d LFs, model has %d", m.NumLFs(), len(mod.ThetaPos))
	}
	out := make([]float64, m.NumPoints())
	mod.posterior(m, out)
	return out, nil
}

// FitSupervised estimates the label model's class-conditional vote
// distributions directly from a labeled development matrix (the paper's
// §4.2 move: labeled data of existing modalities serves as the development
// set). This anchors each LF's reliability in observed counts instead of
// EM's agreement heuristics, which matters when a high-coverage LF (such as
// the propagation LF) would otherwise dominate the agreement structure.
// classBalance fixes the prior; <= 0 uses the dev positive rate.
func FitSupervised(ctx context.Context, m *lf.Matrix, labels []int8, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	n, k := m.NumPoints(), m.NumLFs()
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("labelmodel: empty vote matrix (%dx%d)", n, k)
	}
	_, span := trace.Start(ctx, "labelmodel.supervised")
	defer span.End()
	span.SetInt("points", int64(n))
	span.SetInt("lfs", int64(k))
	if len(labels) != n {
		return nil, fmt.Errorf("labelmodel: %d votes vs %d labels", n, len(labels))
	}
	var nPos, nNeg float64
	for _, l := range labels {
		if l > 0 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return nil, fmt.Errorf("labelmodel: dev set needs both classes (%v+/%v-)", nPos, nNeg)
	}
	model := &Model{
		ThetaPos: make([][3]float64, k),
		ThetaNeg: make([][3]float64, k),
		Prior:    cfg.ClassBalance,
		Iters:    1,
		Names:    append([]string(nil), m.Names...),
	}
	if model.Prior <= 0 || model.Prior >= 1 {
		model.Prior = nPos / float64(n)
	}
	for j := 0; j < k; j++ {
		pos := [3]float64{2 * smoothing, smoothing, smoothing}
		neg := [3]float64{smoothing, 2 * smoothing, smoothing}
		for i := 0; i < n; i++ {
			vi := voteIndex(m.Votes[i][j])
			if labels[i] > 0 {
				pos[vi]++
			} else {
				neg[vi]++
			}
		}
		newPos := normalize3(pos, pos[0]+pos[1]+pos[2])
		newNeg := normalize3(neg, neg[0]+neg[1]+neg[2])
		model.ThetaPos[j], model.ThetaNeg[j] = enforceBetterThanRandom(newPos, newNeg)
	}
	return model, nil
}

// MajorityVote returns the baseline probabilistic labels from unweighted
// voting: (1 + mean vote) / 2 over non-abstaining LFs; points with no votes
// get 0.5.
func MajorityVote(m *lf.Matrix) []float64 {
	out := make([]float64, m.NumPoints())
	for i, row := range m.Votes {
		var sum, n float64
		for _, v := range row {
			if v != 0 {
				sum += float64(v)
				n++
			}
		}
		if n == 0 {
			out[i] = 0.5
			continue
		}
		out[i] = (1 + sum/n) / 2
	}
	return out
}

// Covered reports which points received at least one non-abstain vote.
// Training the end model typically uses covered points only.
func Covered(m *lf.Matrix) []bool {
	out := make([]bool, m.NumPoints())
	for i, row := range m.Votes {
		for _, v := range row {
			if v != 0 {
				out[i] = true
				break
			}
		}
	}
	return out
}

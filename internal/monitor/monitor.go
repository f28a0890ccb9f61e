// Package monitor implements the online model-comparison methodology the
// paper sketches as the answer to "cross-modal vs fully supervised — which
// regime are we in?" (§7.4): train and deploy candidate models in parallel,
// then spend a small human-review budget — a combination of random and
// importance sampling over live traffic — to estimate each model's live
// precision/recall and the candidates' disagreement, with unbiased
// Horvitz–Thompson weighting.
package monitor

import (
	"fmt"
	"math"
	"math/rand"

	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// Oracle reveals a point's true label — the stand-in for a human reviewer.
type Oracle func(*synth.Point) int8

// Config controls a comparison run.
type Config struct {
	// Budget is the number of human reviews available (default 200).
	Budget int
	// Threshold converts scores into flag decisions (default 0.5).
	Threshold float64
	// Seed drives sampling.
	Seed int64
}

// importanceFraction is the share of the budget spent on importance
// sampling — traffic where the candidates disagree or either flags a
// positive — with the remainder sampled uniformly (the paper's "combination
// of random and importance sampling").
const importanceFraction = 0.7

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.Threshold <= 0 || c.Threshold >= 1 {
		c.Threshold = 0.5
	}
	return c
}

// ModelEstimate is one candidate's estimated live metrics.
type ModelEstimate struct {
	Name string
	// FlagRate is the fraction of traffic the model flags (exact; no
	// review needed).
	FlagRate float64
	// Precision is the estimated precision of its flags, from reviewed
	// flagged traffic (Horvitz–Thompson weighted).
	Precision float64
	// RecallProxy is the estimated share of all (estimated) positives the
	// model catches.
	RecallProxy float64
}

// Comparison is the outcome of one monitored comparison.
type Comparison struct {
	A, B ModelEstimate
	// Disagreement is the exact fraction of traffic where the candidates'
	// flag decisions differ.
	Disagreement float64
	// EstimatedPositiveRate is the Horvitz–Thompson estimate of the
	// traffic's true positive rate.
	EstimatedPositiveRate float64
	// Reviewed is the number of oracle calls actually spent.
	Reviewed int
}

// Compare scores live traffic with both candidates, spends the review budget
// per the sampling scheme, and returns weighted estimates. Traffic vectors
// must align with points.
func Compare(nameA string, a fusion.Predictor, nameB string, b fusion.Predictor, traffic []*synth.Point, vecs []*feature.Vector, oracle Oracle, cfg Config) (*Comparison, error) {
	return CompareScored(nameA, a.PredictBatch(vecs), nameB, b, traffic, vecs, oracle, cfg)
}

// CompareScored is Compare for a caller that already holds candidate A's
// scores on the traffic — a server's replies, say — so only B scores vecs.
// scoresA must align with points.
func CompareScored(nameA string, scoresA []float64, nameB string, b fusion.Predictor, traffic []*synth.Point, vecs []*feature.Vector, oracle Oracle, cfg Config) (*Comparison, error) {
	cfg = cfg.withDefaults()
	if len(traffic) == 0 || len(traffic) != len(vecs) || len(traffic) != len(scoresA) {
		return nil, fmt.Errorf("monitor: traffic %d points vs %d vectors and %d scores", len(traffic), len(vecs), len(scoresA))
	}
	if oracle == nil {
		return nil, fmt.Errorf("monitor: nil oracle")
	}
	n := len(traffic)
	scoresB := b.PredictBatch(vecs)
	flagsA := make([]bool, n)
	flagsB := make([]bool, n)
	var flaggedA, flaggedB, disagree int
	var interesting []int // flagged-by-either or disagreeing traffic
	for i := 0; i < n; i++ {
		flagsA[i] = scoresA[i] >= cfg.Threshold
		flagsB[i] = scoresB[i] >= cfg.Threshold
		if flagsA[i] {
			flaggedA++
		}
		if flagsB[i] {
			flaggedB++
		}
		if flagsA[i] != flagsB[i] {
			disagree++
		}
		if flagsA[i] || flagsB[i] {
			interesting = append(interesting, i)
		}
	}

	// Allocate the budget: importance samples from the interesting pool,
	// random samples from everything. Sampling is without replacement;
	// each stratum's inclusion probability is tracked for weighting.
	rng := xrand.New(cfg.Seed ^ 0x30b1)
	budget := cfg.Budget
	if budget > n {
		budget = n
	}
	impBudget := int(float64(budget) * importanceFraction)
	if impBudget > len(interesting) {
		impBudget = len(interesting)
	}
	rndBudget := budget - impBudget

	// Reviews are kept in the order they were made, so every estimate below
	// sums its floats in one fixed order and replays bit for bit.
	type labeled struct {
		idx   int
		label int8
	}
	reviewed := make([]labeled, 0, budget)
	seen := make([]bool, n)
	review := func(idx int) {
		if !seen[idx] {
			seen[idx] = true
			reviewed = append(reviewed, labeled{idx, oracle(traffic[idx])})
		}
	}
	impPick := samplePrefix(rng, interesting, impBudget)
	for _, idx := range impPick {
		review(idx)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, idx := range samplePrefix(rng, all, rndBudget) {
		review(idx)
	}

	// Inclusion probabilities per point: interesting points can enter via
	// either stratum; others only via the random stratum.
	pImp := 0.0
	if len(interesting) > 0 {
		pImp = float64(impBudget) / float64(len(interesting))
	}
	pRnd := float64(rndBudget) / float64(n)
	inclusion := func(i int) float64 {
		if flagsA[i] || flagsB[i] {
			return 1 - (1-pImp)*(1-pRnd)
		}
		return pRnd
	}

	// Horvitz–Thompson estimates.
	var posMass, totalMassCheck float64
	htPrecision := func(flags []bool) float64 {
		var hit, tot float64
		for _, r := range reviewed {
			if !flags[r.idx] {
				continue
			}
			w := 1 / inclusion(r.idx)
			tot += w
			if r.label > 0 {
				hit += w
			}
		}
		if tot == 0 {
			return 0
		}
		return hit / tot
	}
	for _, r := range reviewed {
		w := 1 / inclusion(r.idx)
		totalMassCheck += w
		if r.label > 0 {
			posMass += w
		}
	}
	estPosRate := 0.0
	if totalMassCheck > 0 {
		estPosRate = posMass / totalMassCheck
	}

	comp := &Comparison{
		Disagreement:          float64(disagree) / float64(n),
		EstimatedPositiveRate: estPosRate,
		Reviewed:              len(reviewed),
	}
	comp.A = ModelEstimate{
		Name:      nameA,
		FlagRate:  float64(flaggedA) / float64(n),
		Precision: htPrecision(flagsA),
	}
	comp.B = ModelEstimate{
		Name:      nameB,
		FlagRate:  float64(flaggedB) / float64(n),
		Precision: htPrecision(flagsB),
	}
	// Recall proxy: flagged-positive mass over all positive mass.
	if posMass > 0 {
		var caughtA, caughtB float64
		for _, r := range reviewed {
			if r.label <= 0 {
				continue
			}
			w := 1 / inclusion(r.idx)
			if flagsA[r.idx] {
				caughtA += w
			}
			if flagsB[r.idx] {
				caughtB += w
			}
		}
		comp.A.RecallProxy = clamp01(caughtA / posMass)
		comp.B.RecallProxy = clamp01(caughtB / posMass)
	}
	return comp, nil
}

func clamp01(x float64) float64 { return math.Min(math.Max(x, 0), 1) }

// samplePrefix returns k distinct elements of pool, sampled uniformly.
func samplePrefix(rng *rand.Rand, pool []int, k int) []int {
	if k <= 0 {
		return nil
	}
	if k >= len(pool) {
		return append([]int(nil), pool...)
	}
	cp := append([]int(nil), pool...)
	rng.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
	return cp[:k]
}

// Winner returns the name of the candidate with the better reviewed
// precision at comparable flag rates, or "" when the difference is within
// margin (deploy either; keep monitoring).
func (c *Comparison) Winner(margin float64) string {
	diff := c.A.Precision - c.B.Precision
	if math.Abs(diff) <= margin {
		return ""
	}
	if diff > 0 {
		return c.A.Name
	}
	return c.B.Name
}

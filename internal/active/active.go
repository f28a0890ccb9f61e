// Package active implements the human-in-the-loop augmentation the paper
// prescribes after the cross-modal bootstrap (§6.4): "rapid initial model
// deployment that can be augmented via techniques for active learning or
// self-training on the order of days". Starting from the pipeline's
// weakly-supervised model, the loop repeatedly selects new-modality points
// for human review, folds the reviewed hard labels into training, and
// retrains — tracking how quickly targeted review closes the gap to full
// supervision.
package active

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"crossmodal/internal/core"
	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/metrics"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// Strategy selects which unreviewed points are sent to human review.
type Strategy string

// The sampling strategies of §7.4 ("a combination of random and importance
// sampling") plus the classic uncertainty criterion.
const (
	// Uncertainty reviews the points the current model is least sure
	// about (score closest to 0.5).
	Uncertainty Strategy = "uncertainty"
	// Importance reviews the highest-scoring points (positive hunting —
	// what a review queue does in heavily imbalanced moderation).
	Importance Strategy = "importance"
	// Random reviews uniformly (the baseline the paper's heuristics
	// replaced).
	Random Strategy = "random"
)

// Oracle reveals a point's true label — the stand-in for a human reviewer.
type Oracle func(*synth.Point) int8

// reviewWeight is the training weight of each reviewed point relative to a
// weakly labeled one: hard labels are worth more.
const reviewWeight = 3.0

// Config controls the loop.
type Config struct {
	// Strategy selects the review policy (default Uncertainty).
	Strategy Strategy
	// BatchSize is how many points are reviewed per round (default 50).
	BatchSize int
	// Rounds is how many review rounds run (default 5).
	Rounds int
	// Seed drives random sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = Uncertainty
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 50
	}
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	return c
}

// Round records one review round's outcome.
type Round struct {
	// Reviewed is the cumulative number of human-reviewed points.
	Reviewed int
	// PositivesFound is the cumulative number of true positives surfaced
	// to reviewers (review efficiency).
	PositivesFound int
	// TestAUPRC is the retrained model's AUPRC on the held-out test set.
	TestAUPRC float64
}

// Result is a completed active-learning run.
type Result struct {
	// Initial is the bootstrap model's AUPRC before any review.
	Initial float64
	// Rounds has one entry per review round.
	Rounds []Round
	// Predictor is the model the loop grew: the last round's retrain (the
	// bootstrap model when no round ran).
	Predictor fusion.Predictor
}

// Run executes the loop: the pipeline's curation provides the bootstrap
// model and weak labels; pool is the unlabeled new-modality traffic eligible
// for review; oracle reveals labels. The model is evaluated on test after
// every round.
func Run(ctx context.Context, pipe *core.Pipeline, cur *core.Curation, pool, test []*synth.Point, oracle Oracle, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(pool) == 0 {
		return nil, fmt.Errorf("active: empty review pool")
	}
	if oracle == nil {
		return nil, fmt.Errorf("active: nil oracle")
	}
	poolVecs, err := pipe.Featurize(ctx, pool)
	if err != nil {
		return nil, fmt.Errorf("active: featurize pool: %w", err)
	}
	testVecs, err := pipe.Featurize(ctx, test)
	if err != nil {
		return nil, fmt.Errorf("active: featurize test: %w", err)
	}
	testLabels := synth.Labels(test)

	spec := pipe.DefaultTrainSpec()
	predictor, err := pipe.Train(ctx, cur, spec)
	if err != nil {
		return nil, fmt.Errorf("active: bootstrap training: %w", err)
	}
	res := &Result{Initial: metrics.AUPRC(testLabels, predictor.PredictBatch(testVecs))}

	rng := xrand.New(cfg.Seed ^ 0xac71)
	reviewed := make(map[int]bool, cfg.Rounds*cfg.BatchSize)
	var reviewedVecs []*feature.Vector
	var reviewedTargets, reviewedWeights []float64
	positives := 0

	for round := 0; round < cfg.Rounds; round++ {
		scores := predictor.PredictBatch(poolVecs)
		batch := selectBatch(cfg.Strategy, scores, reviewed, cfg.BatchSize, rng)
		if len(batch) == 0 {
			break // pool exhausted
		}
		for _, idx := range batch {
			reviewed[idx] = true
			label := oracle(pool[idx])
			target := 0.0
			if label > 0 {
				target = 1
				positives++
			}
			reviewedVecs = append(reviewedVecs, poolVecs[idx])
			reviewedTargets = append(reviewedTargets, target)
			reviewedWeights = append(reviewedWeights, reviewWeight)
		}
		roundSpec := spec
		roundSpec.Extra = []fusion.Corpus{{
			Name:    "reviewed",
			Vectors: reviewedVecs,
			Targets: reviewedTargets,
			Weights: reviewedWeights,
		}}
		predictor, err = pipe.Train(ctx, cur, roundSpec)
		if err != nil {
			return nil, fmt.Errorf("active: round %d training: %w", round, err)
		}
		res.Rounds = append(res.Rounds, Round{
			Reviewed:       len(reviewedVecs),
			PositivesFound: positives,
			TestAUPRC:      metrics.AUPRC(testLabels, predictor.PredictBatch(testVecs)),
		})
	}
	res.Predictor = predictor
	return res, nil
}

// selectBatch picks up to batchSize unreviewed indices per the strategy.
func selectBatch(strategy Strategy, scores []float64, reviewed map[int]bool, batchSize int, rng *rand.Rand) []int {
	var candidates []int
	for i := range scores {
		if !reviewed[i] {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	switch strategy {
	case Random:
		rng.Shuffle(len(candidates), func(a, b int) {
			candidates[a], candidates[b] = candidates[b], candidates[a]
		})
	case Importance:
		sort.Slice(candidates, func(a, b int) bool {
			if scores[candidates[a]] != scores[candidates[b]] {
				return scores[candidates[a]] > scores[candidates[b]]
			}
			return candidates[a] < candidates[b]
		})
	default: // Uncertainty
		margin := func(i int) float64 {
			m := scores[i] - 0.5
			if m < 0 {
				m = -m
			}
			return m
		}
		sort.Slice(candidates, func(a, b int) bool {
			ma, mb := margin(candidates[a]), margin(candidates[b])
			if ma != mb {
				return ma < mb
			}
			return candidates[a] < candidates[b]
		})
	}
	if len(candidates) > batchSize {
		candidates = candidates[:batchSize]
	}
	out := append([]int(nil), candidates...)
	sort.Ints(out)
	return out
}

// SelfTrain implements the self-training alternative (§6.4): instead of
// human review, the model's own most confident predictions on the pool are
// folded back as pseudo-labels. confidence is the minimum |score - 0.5|·2
// for a pseudo-label (e.g. 0.9 keeps only scores ≤0.05 or ≥0.95). Returns
// the retrained predictor and how many pseudo-labels were used.
func SelfTrain(ctx context.Context, pipe *core.Pipeline, cur *core.Curation, pool []*synth.Point, confidence float64, weight float64) (fusion.Predictor, int, error) {
	if confidence <= 0 || confidence >= 1 {
		return nil, 0, fmt.Errorf("active: confidence must be in (0,1), got %v", confidence)
	}
	if weight <= 0 {
		weight = 1
	}
	poolVecs, err := pipe.Featurize(ctx, pool)
	if err != nil {
		return nil, 0, err
	}
	spec := pipe.DefaultTrainSpec()
	predictor, err := pipe.Train(ctx, cur, spec)
	if err != nil {
		return nil, 0, err
	}
	scores := predictor.PredictBatch(poolVecs)
	var vecs []*feature.Vector
	var targets, weights []float64
	for i, s := range scores {
		c := 2 * (s - 0.5)
		if c < 0 {
			c = -c
		}
		if c < confidence {
			continue
		}
		target := 0.0
		if s >= 0.5 {
			target = 1
		}
		vecs = append(vecs, poolVecs[i])
		targets = append(targets, target)
		weights = append(weights, weight)
	}
	if len(vecs) == 0 {
		return predictor, 0, nil
	}
	spec.Extra = []fusion.Corpus{{Name: "pseudo", Vectors: vecs, Targets: targets, Weights: weights}}
	retrained, err := pipe.Train(ctx, cur, spec)
	if err != nil {
		return nil, 0, err
	}
	return retrained, len(vecs), nil
}

// Package metrics implements the evaluation metrics the paper reports:
// area under the precision-recall curve (AUPRC, the headline offline metric,
// §6.3), precision / recall / F1 at a threshold, coverage, and relative
// AUPRC against a baseline model.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Confusion counts binary outcomes at a fixed decision threshold.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (label, prediction) outcome; labels and predictions are
// +1 / -1.
func (c *Confusion) Add(label, pred int8) {
	switch {
	case label > 0 && pred > 0:
		c.TP++
	case label > 0:
		c.FN++
	case pred > 0:
		c.FP++
	default:
		c.TN++
	}
}

// Precision returns TP / (TP+FP), or 0 when no positives were predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP+FN), or 0 when there are no true positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 if both are 0.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the counts compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d p=%.3f r=%.3f f1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}

// PRPoint is one operating point on a precision-recall curve.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PRCurve computes the precision-recall curve by sweeping the decision
// threshold over the distinct scores, highest first. Ties in score are
// handled jointly (all points at a score enter together). NaN scores rank
// below every real score and form a single tie group of their own — a
// scorer that emits NaN has abstained as hard as possible, so those points
// enter the curve last rather than poisoning the sweep. It panics on length
// mismatch and returns nil when there are no positive labels.
func PRCurve(labels []int8, scores []float64) []PRPoint {
	if len(labels) != len(scores) {
		panic(fmt.Sprintf("metrics: %d labels vs %d scores", len(labels), len(scores)))
	}
	totalPos := 0
	for _, l := range labels {
		if l > 0 {
			totalPos++
		}
	}
	if totalPos == 0 || len(labels) == 0 {
		return nil
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		if math.IsNaN(sa) {
			return false // NaN sinks to the end
		}
		if math.IsNaN(sb) {
			return true
		}
		return sa > sb
	})

	var curve []PRPoint
	tp, fp := 0, 0
	i := 0
	for i < len(idx) {
		j := i
		threshold := scores[idx[i]]
		// sameScore must treat NaN as tied with NaN, or the group would be
		// empty and the sweep would never advance.
		for j < len(idx) && (scores[idx[j]] == threshold ||
			(math.IsNaN(threshold) && math.IsNaN(scores[idx[j]]))) {
			if labels[idx[j]] > 0 {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, PRPoint{
			Threshold: threshold,
			Precision: float64(tp) / float64(tp+fp),
			Recall:    float64(tp) / float64(totalPos),
		})
		i = j
	}
	return curve
}

// AUPRC returns the area under the precision-recall curve computed by the
// average-precision estimator: sum over curve steps of precision × Δrecall.
// Returns 0 when there are no positive labels.
func AUPRC(labels []int8, scores []float64) float64 {
	curve := PRCurve(labels, scores)
	if curve == nil {
		return 0
	}
	var area, prevRecall float64
	for _, pt := range curve {
		area += pt.Precision * (pt.Recall - prevRecall)
		prevRecall = pt.Recall
	}
	return area
}

// Relative expresses value as a multiple of baseline, the form in which the
// paper reports every AUPRC (relative to the fully supervised
// embeddings-only image model). A non-positive baseline yields 0.
func Relative(value, baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return value / baseline
}

// BootstrapAUPRC returns the mean and approximate 95% confidence interval of
// AUPRC over rounds bootstrap resamples.
func BootstrapAUPRC(labels []int8, scores []float64, rounds int, seed int64) (mean, lo, hi float64) {
	if rounds <= 0 || len(labels) == 0 {
		return 0, 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, 0, rounds)
	rl := make([]int8, len(labels))
	rs := make([]float64, len(scores))
	for r := 0; r < rounds; r++ {
		for i := range rl {
			j := rng.Intn(len(labels))
			rl[i], rs[i] = labels[j], scores[j]
		}
		vals = append(vals, AUPRC(rl, rs))
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	loIdx := int(0.025 * float64(rounds))
	hiIdx := int(0.975*float64(rounds)) - 1
	if hiIdx < 0 {
		hiIdx = 0
	}
	return sum / float64(rounds), vals[loIdx], vals[hiIdx]
}

// BaseRate returns the fraction of positive labels; a random classifier's
// expected AUPRC.
func BaseRate(labels []int8) float64 {
	if len(labels) == 0 {
		return 0
	}
	n := 0
	for _, l := range labels {
		if l > 0 {
			n++
		}
	}
	return float64(n) / float64(len(labels))
}

// Package mining implements automatic labeling-function generation via
// frequent itemset mining (paper §4.3).
//
// The miner scans the full labeled development corpus of the old modality —
// something no human expert can do — and identifies feature values (and
// higher-order combinations of values of the same feature, as in the Apriori
// algorithm) that occur disproportionately in one class. Candidates that
// meet pre-specified precision and recall thresholds over the development
// set become labeling functions. To keep LFs weakly correlated, each LF is a
// conjunction of category values of a single feature; to stay cheap in
// class-imbalanced settings, candidates are first mined from the positive
// examples only, then scored against the negatives (the paper's
// positives-first optimization).
package mining

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"crossmodal/internal/feature"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
)

// Config sets the mining thresholds.
type Config struct {
	// MaxOrder is the largest itemset size (categories of one feature
	// combined into a conjunction). The paper found order 1 sufficient in
	// practice; 1 is the default.
	MaxOrder int
	// MinSupport is the minimum number of positive dev examples containing
	// a candidate itemset.
	MinSupport int
	// PosPrecision is an absolute floor and PosLift a base-rate multiple;
	// a positive LF must reach precision max(PosPrecision,
	// PosLift × positive rate) on the dev set (capped at 0.9). The lift
	// form is what matters in the paper's class-imbalanced tasks, where
	// no single feature value reaches high absolute precision but strong
	// values carry large likelihood ratios.
	PosPrecision float64
	PosLift      float64
	PosRecall    float64
	// NegPrecision / NegLift / NegRecall mirror the positive thresholds
	// for negative LFs; because the negative class dominates, the
	// effective threshold is near 1.
	NegPrecision float64
	NegLift      float64
	NegRecall    float64
	// MaxLFsPerFeature caps accepted LFs per (feature, class) to limit
	// correlated LFs; 0 means no cap.
	MaxLFsPerFeature int
	// NumericQuantiles is how many threshold candidates are tried per
	// numeric feature (cut points at quantiles of the dev distribution).
	NumericQuantiles int
}

// DefaultConfig returns thresholds that work across the five evaluation
// tasks.
func DefaultConfig() Config {
	return Config{
		MaxOrder:         1,
		MinSupport:       10,
		PosPrecision:     0.02,
		PosLift:          3,
		PosRecall:        0.004,
		NegPrecision:     0.90,
		NegLift:          1.02,
		NegRecall:        0.02,
		MaxLFsPerFeature: 6,
		NumericQuantiles: 16,
	}
}

// posThreshold returns the effective positive-LF precision threshold for a
// dev set with the given positive rate.
func (c Config) posThreshold(posRate float64) float64 {
	t := c.PosPrecision
	if lifted := c.PosLift * posRate; lifted > t {
		t = lifted
	}
	if t > 0.9 {
		t = 0.9
	}
	return t
}

// negThreshold mirrors posThreshold for negative LFs.
func (c Config) negThreshold(negRate float64) float64 {
	t := c.NegPrecision
	if lifted := c.NegLift * negRate; lifted > t {
		t = lifted
	}
	if t > 0.999 {
		t = 0.999
	}
	return t
}

func (c Config) validate() error {
	if c.MaxOrder < 1 {
		return fmt.Errorf("mining: MaxOrder must be >= 1, got %d", c.MaxOrder)
	}
	if c.MinSupport < 1 {
		return fmt.Errorf("mining: MinSupport must be >= 1, got %d", c.MinSupport)
	}
	if c.PosPrecision <= 0 || c.PosPrecision > 1 || c.NegPrecision <= 0 || c.NegPrecision > 1 {
		return fmt.Errorf("mining: precision thresholds must be in (0,1]")
	}
	return nil
}

// Report summarizes a mining run.
type Report struct {
	CandidatesScanned int
	PositiveLFs       int
	NegativeLFs       int
	NumericLFs        int
	DevPositives      int
	DevNegatives      int
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("mined %d candidates over %d+/%d- dev points → %d positive, %d negative, %d numeric LFs",
		r.CandidatesScanned, r.DevPositives, r.DevNegatives, r.PositiveLFs, r.NegativeLFs, r.NumericLFs)
}

// itemset is a sorted set of categories of one feature, keyed canonically.
type itemset struct {
	feat string
	cats []string
}

func (s itemset) key() string {
	return s.feat + "|" + strings.Join(s.cats, ",")
}

// Mine generates LFs from a labeled development corpus. vecs and labels are
// the dev set (old-modality labeled data projected into the common feature
// space); labels are +1/-1. It is the single-chunk case of MineStream,
// which does the actual work.
func Mine(ctx context.Context, mrCfg mapreduce.Config, cfg Config, vecs []*feature.Vector, labels []int8) ([]*lf.LF, Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, Report{}, err
	}
	if len(vecs) != len(labels) {
		return nil, Report{}, fmt.Errorf("mining: %d vectors vs %d labels", len(vecs), len(labels))
	}
	if len(vecs) == 0 {
		return nil, Report{}, fmt.Errorf("mining: empty development set")
	}
	return MineStream(ctx, mrCfg, cfg, &sliceCorpus{vecs: vecs, labels: labels})
}

type itemsetCount struct {
	set   itemset
	count int
}

func parseKey(key string) itemset {
	parts := strings.SplitN(key, "|", 2)
	return itemset{feat: parts[0], cats: strings.Split(parts[1], ",")}
}

// joinCandidates produces order-k candidates from frequent (k-1)-itemsets of
// the same feature, Apriori join: two sets sharing the first k-2 categories.
func joinCandidates(frequent map[string][]itemset, order int) []itemset {
	var out []itemset
	feats := make([]string, 0, len(frequent))
	for f := range frequent {
		feats = append(feats, f)
	}
	sort.Strings(feats)
	for _, f := range feats {
		sets := frequent[f]
		sort.Slice(sets, func(i, j int) bool {
			return strings.Join(sets[i].cats, ",") < strings.Join(sets[j].cats, ",")
		})
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				a, b := sets[i].cats, sets[j].cats
				if len(a) != order-1 || len(b) != order-1 {
					continue
				}
				if !equalPrefix(a, b, order-2) {
					break // sorted: later j won't share the prefix either
				}
				merged := append(append([]string{}, a...), b[order-2])
				sort.Strings(merged)
				out = append(out, itemset{feat: f, cats: merged})
			}
		}
	}
	return out
}

func equalPrefix(a, b []string, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// acceptCategorical turns mined itemsets into LFs when they meet the
// precision and recall thresholds. inClassTotal is the size of the voted
// class in the dev set; otherCounts holds each candidate's count in the
// other class.
func acceptCategorical(sets map[string]itemsetCount, otherCounts map[string]int, inClassTotal int, minPrecision, minRecall float64, perFeatureCap int, vote int8) []*lf.LF {
	type scored struct {
		set       itemset
		precision float64
		recall    float64
	}
	byFeat := make(map[string][]scored)
	for key, ic := range sets {
		in := ic.count
		out := otherCounts[key]
		precision := float64(in) / float64(in+out)
		recall := float64(in) / float64(inClassTotal)
		if precision >= minPrecision && recall >= minRecall {
			byFeat[ic.set.feat] = append(byFeat[ic.set.feat], scored{ic.set, precision, recall})
		}
	}
	var out []*lf.LF
	feats := make([]string, 0, len(byFeat))
	for f := range byFeat {
		feats = append(feats, f)
	}
	sort.Strings(feats)
	for _, f := range feats {
		cands := byFeat[f]
		sort.Slice(cands, func(i, j int) bool {
			// Rank by F1-ish product to prefer candidates that are both
			// precise and broad; ties broken deterministically.
			si := cands[i].precision * cands[i].recall
			sj := cands[j].precision * cands[j].recall
			if si != sj {
				return si > sj
			}
			return cands[i].set.key() < cands[j].set.key()
		})
		// Prune supersets of accepted sets: they cannot add coverage and
		// would correlate heavily with their subset LF.
		var accepted []itemset
		for _, c := range cands {
			if perFeatureCap > 0 && len(accepted) >= perFeatureCap {
				break
			}
			if supersetOfAny(c.set, accepted) {
				continue
			}
			accepted = append(accepted, c.set)
			out = append(out, itemsetLF(c.set, vote))
		}
	}
	return out
}

func supersetOfAny(s itemset, accepted []itemset) bool {
	for _, a := range accepted {
		if len(a.cats) >= len(s.cats) {
			continue
		}
		all := true
		for _, c := range a.cats {
			if !containsStr(s.cats, c) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// itemsetLF builds the LF for one mined itemset: all categories of the
// feature must be present.
func itemsetLF(s itemset, vote int8) *lf.LF {
	if len(s.cats) == 1 {
		return lf.CategoryLF(s.feat, s.cats[0], vote, "mined")
	}
	l := &lf.LF{
		Name:   fmt.Sprintf("%s⊇{%s}→%+d", s.feat, strings.Join(s.cats, ","), vote),
		Source: "mined",
		Vote:   vote,
	}
	for _, c := range s.cats {
		l.Terms = append(l.Terms, lf.Term{Feature: s.feat, Category: c})
	}
	return l
}

package mining

import (
	"context"
	"fmt"
	"sort"

	"crossmodal/internal/feature"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/trace"
)

// Corpus is a labeled development corpus the miner can scan chunk by
// chunk, possibly more than once (higher-order Apriori passes re-scan).
// Implementations back onto in-memory slices or the disk feature store;
// every Scan must yield the same rows in the same order.
type Corpus interface {
	Schema() *feature.Schema
	Scan(ctx context.Context, fn func(vecs []*feature.Vector, labels []int8) error) error
}

// sliceCorpus adapts the classic in-memory dev set to Corpus.
type sliceCorpus struct {
	vecs   []*feature.Vector
	labels []int8
}

func (s *sliceCorpus) Schema() *feature.Schema { return s.vecs[0].Schema() }

func (s *sliceCorpus) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	return fn(s.vecs, s.labels)
}

// numObs is one observed (value, label) pair of a numeric feature.
type numObs struct {
	val float64
	lbl int8
}

// MineStream is Mine over a chunked corpus: order-1 class counts, numeric
// observations, and class totals all accumulate in one scan (counts are
// additive, so chunk merging is exact); only MaxOrder >= 2 Apriori joins
// re-scan the corpus. The result is identical to Mine over the
// concatenated chunks — the property TestMineStreamMatchesMine pins.
func MineStream(ctx context.Context, mrCfg mapreduce.Config, cfg Config, corpus Corpus) ([]*lf.LF, Report, error) {
	var report Report
	if err := cfg.validate(); err != nil {
		return nil, report, err
	}
	ctx, span := trace.Start(ctx, "mining")
	defer span.End()
	defer func() {
		span.Add("candidates", int64(report.CandidatesScanned))
		span.Add("lfs_pos", int64(report.PositiveLFs))
		span.Add("lfs_neg", int64(report.NegativeLFs))
		span.Add("lfs_numeric", int64(report.NumericLFs))
	}()
	schema := corpus.Schema()
	var numCols []int
	for i := 0; i < schema.Len(); i++ {
		if schema.Def(i).Kind == feature.Numeric {
			numCols = append(numCols, i)
		}
	}
	collectNumeric := cfg.NumericQuantiles >= 2
	observed := make([][]numObs, len(numCols))

	// Single accumulation pass: order-1 itemset counts per class, class
	// totals, and (value, label) observations for the numeric miner.
	posCount1 := make(map[string]int)
	negCount1 := make(map[string]int)
	var nPos, nNeg int
	err := corpus.Scan(ctx, func(vecs []*feature.Vector, labels []int8) error {
		if len(vecs) != len(labels) {
			return fmt.Errorf("mining: %d vectors vs %d labels", len(vecs), len(labels))
		}
		var pos, neg []*feature.Vector
		for i, v := range vecs {
			if labels[i] > 0 {
				pos = append(pos, v)
			} else {
				neg = append(neg, v)
			}
		}
		nPos += len(pos)
		nNeg += len(neg)
		for _, half := range []struct {
			vecs []*feature.Vector
			into map[string]int
		}{{pos, posCount1}, {neg, negCount1}} {
			if len(half.vecs) == 0 {
				continue
			}
			counts, err := countOrder1(ctx, mrCfg, schema, half.vecs)
			if err != nil {
				return err
			}
			for key, n := range counts {
				half.into[key] += n
			}
		}
		if collectNumeric {
			for j, col := range numCols {
				for i, v := range vecs {
					if v.Present(col) {
						observed[j] = append(observed[j], numObs{v.Num(col), labels[i]})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, report, err
	}
	if nPos+nNeg == 0 {
		return nil, report, fmt.Errorf("mining: empty development set")
	}
	report.DevPositives = nPos
	report.DevNegatives = nNeg
	if nPos == 0 || nNeg == 0 {
		return nil, report, fmt.Errorf("mining: dev set needs both classes (%d+/%d-)", nPos, nNeg)
	}
	posRate := float64(nPos) / float64(nPos+nNeg)
	posThreshold := cfg.posThreshold(posRate)
	negThreshold := cfg.negThreshold(1 - posRate)

	var lfs []*lf.LF

	// --- Positive categorical LFs: positives-first Apriori ---
	posSets := frequentFromCounts(posCount1, cfg.MinSupport)
	if cfg.MaxOrder >= 2 {
		if err := extendFrequent(ctx, mrCfg, schema, corpus, lf.Positive, posSets, cfg.MaxOrder, cfg.MinSupport); err != nil {
			return nil, report, err
		}
	}
	report.CandidatesScanned += len(posSets)
	negCounts := make(map[string]int, len(posSets))
	var higher []itemset
	for key, ic := range posSets {
		if len(ic.set.cats) == 1 {
			negCounts[key] = negCount1[key]
		} else {
			higher = append(higher, ic.set)
		}
	}
	if len(higher) > 0 {
		cc, err := countItemsetStream(ctx, mrCfg, schema, corpus, lf.Negative, higher)
		if err != nil {
			return nil, report, err
		}
		for key, ic := range cc {
			negCounts[key] = ic.count
		}
	}
	posLFs := acceptCategorical(posSets, negCounts, nPos, posThreshold, cfg.PosRecall, cfg.MaxLFsPerFeature, lf.Positive)
	report.PositiveLFs = len(posLFs)
	lfs = append(lfs, posLFs...)

	// --- Negative categorical LFs: order 1 only, counts already in hand ---
	negSets := frequentFromCounts(negCount1, cfg.MinSupport)
	report.CandidatesScanned += len(negSets)
	posCounts := make(map[string]int, len(negSets))
	for key := range negSets {
		posCounts[key] = posCount1[key]
	}
	negLFs := acceptCategorical(negSets, posCounts, nNeg, negThreshold, cfg.NegRecall, cfg.MaxLFsPerFeature, lf.Negative)
	report.NegativeLFs = len(negLFs)
	lfs = append(lfs, negLFs...)

	// --- Numeric threshold LFs ---
	numLFs := mineNumericObserved(schema, numCols, observed, nPos, nNeg, cfg, posThreshold, negThreshold)
	report.NumericLFs = len(numLFs)
	lfs = append(lfs, numLFs...)

	sort.Slice(lfs, func(i, j int) bool { return lfs[i].Name < lfs[j].Name })
	return lfs, report, nil
}

// countOrder1 counts every (feature, category) itemset over one class
// slice of one chunk.
func countOrder1(ctx context.Context, mrCfg mapreduce.Config, schema *feature.Schema, corpus []*feature.Vector) (map[string]int, error) {
	return mapreduce.Count(ctx, mrCfg, corpus, func(v *feature.Vector, emit func(string)) error {
		for i := 0; i < schema.Len(); i++ {
			d := schema.Def(i)
			if d.Kind != feature.Categorical {
				continue
			}
			for _, c := range dedupe(v.Categories(i)) {
				emit(itemset{d.Name, []string{c}}.key())
			}
		}
		return nil
	})
}

// frequentFromCounts filters accumulated order-1 counts by support.
func frequentFromCounts(counts map[string]int, minSupport int) map[string]itemsetCount {
	out := make(map[string]itemsetCount)
	for key, n := range counts {
		if n >= minSupport {
			out[key] = itemsetCount{set: parseKey(key), count: n}
		}
	}
	return out
}

// extendFrequent grows the frequent-set map to maxOrder Apriori-style; each
// order re-scans the corpus once to count candidate support in the voted
// class.
func extendFrequent(ctx context.Context, mrCfg mapreduce.Config, schema *feature.Schema, corpus Corpus, class int8, out map[string]itemsetCount, maxOrder, minSupport int) error {
	prev := make(map[string][]itemset)
	for _, ic := range out {
		prev[ic.set.feat] = append(prev[ic.set.feat], ic.set)
	}
	for order := 2; order <= maxOrder; order++ {
		candidates := joinCandidates(prev, order)
		if len(candidates) == 0 {
			break
		}
		cc, err := countItemsetStream(ctx, mrCfg, schema, corpus, class, candidates)
		if err != nil {
			return err
		}
		next := make(map[string][]itemset)
		for key, ic := range cc {
			if ic.count < minSupport {
				continue
			}
			out[key] = ic
			next[ic.set.feat] = append(next[ic.set.feat], ic.set)
		}
		prev = next
	}
	return nil
}

// countItemsetStream counts candidate support within one class across the
// whole corpus, chunk by chunk.
func countItemsetStream(ctx context.Context, mrCfg mapreduce.Config, schema *feature.Schema, corpus Corpus, class int8, candidates []itemset) (map[string]itemsetCount, error) {
	total := make(map[string]itemsetCount, len(candidates))
	for _, s := range candidates {
		total[s.key()] = itemsetCount{set: s}
	}
	err := corpus.Scan(ctx, func(vecs []*feature.Vector, labels []int8) error {
		var in []*feature.Vector
		for i, v := range vecs {
			if (class > 0) == (labels[i] > 0) {
				in = append(in, v)
			}
		}
		if len(in) == 0 {
			return nil
		}
		cc, err := countItemsetList(ctx, mrCfg, schema, in, candidates)
		if err != nil {
			return err
		}
		for key, ic := range cc {
			t := total[key]
			t.count += ic.count
			total[key] = t
		}
		return nil
	})
	return total, err
}

// mineNumericObserved is the numeric threshold miner over pre-collected
// observations (cols[j] is the schema position observed[j] belongs to).
// Observations must be in corpus order; quantile cuts and tie handling then
// match the in-memory miner exactly.
func mineNumericObserved(schema *feature.Schema, cols []int, observed [][]numObs, totalPos, totalNeg int, cfg Config, posThreshold, negThreshold float64) []*lf.LF {
	q := cfg.NumericQuantiles
	if q < 2 {
		return nil
	}
	var out []*lf.LF
	for j, fi := range cols {
		d := schema.Def(fi)
		obs := observed[j]
		if len(obs) < 2*cfg.MinSupport {
			continue
		}
		obs = append([]numObs(nil), obs...)
		sort.Slice(obs, func(i, k int) bool { return obs[i].val < obs[k].val })
		type best struct {
			ok    bool
			score float64
			lf    *lf.LF
		}
		var bestPos, bestNeg best
		consider := func(cut float64, above bool, vote int8) {
			var in, other int
			for _, o := range obs {
				hit := (above && o.val >= cut) || (!above && o.val <= cut)
				if !hit {
					continue
				}
				if o.lbl == vote {
					in++
				} else {
					other++
				}
			}
			if in < cfg.MinSupport {
				return
			}
			precision := float64(in) / float64(in+other)
			total := totalPos
			minP, minR := posThreshold, cfg.PosRecall
			slot := &bestPos
			if vote == lf.Negative {
				total = totalNeg
				minP, minR = negThreshold, cfg.NegRecall
				slot = &bestNeg
			}
			recall := float64(in) / float64(total)
			if precision < minP || recall < minR {
				return
			}
			score := precision * recall
			if !slot.ok || score > slot.score {
				*slot = best{true, score, lf.ThresholdLF(d.Name, cut, above, vote, "mined")}
			}
		}
		for k := 1; k < q; k++ {
			cut := obs[len(obs)*k/q].val
			consider(cut, true, lf.Positive)
			consider(cut, false, lf.Positive)
			consider(cut, true, lf.Negative)
			consider(cut, false, lf.Negative)
		}
		if bestPos.ok {
			out = append(out, bestPos.lf)
		}
		if bestNeg.ok {
			out = append(out, bestNeg.lf)
		}
	}
	return out
}

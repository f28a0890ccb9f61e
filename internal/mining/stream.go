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
// Every Scan must yield the same rows in the same order.
type Corpus interface {
	Schema() *feature.Schema
	Scan(ctx context.Context, fn func(vecs []*feature.Vector, labels []int8) error) error
}

// ColumnScan is one pass over a labeled development corpus as column views:
// fn gets each chunk's labels in row order and the chunk's views, opened for
// the schema being mined. The disk feature store backs it straight with its
// chunk segments, vectorScan with any Corpus; the miner itself never sees a Vector.
type ColumnScan func(ctx context.Context, fn func(labels []int8, parts []feature.Columns) error) error

// sliceCorpus adapts the classic in-memory dev set to Corpus.
type sliceCorpus struct {
	vecs   []*feature.Vector
	labels []int8
}

func (s *sliceCorpus) Schema() *feature.Schema { return s.vecs[0].Schema() }

func (s *sliceCorpus) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	return fn(s.vecs, s.labels)
}

// vectorScan scans a Corpus through the vector adapter.
func vectorScan(corpus Corpus) ColumnScan {
	schema := corpus.Schema()
	return func(ctx context.Context, fn func([]int8, []feature.Columns) error) error {
		return corpus.Scan(ctx, func(vecs []*feature.Vector, labels []int8) error {
			if len(vecs) != len(labels) {
				return fmt.Errorf("mining: %d vectors vs %d labels", len(vecs), len(labels))
			}
			return fn(labels, feature.VectorColumns(schema, vecs))
		})
	}
}

// numObs is one observed (value, label) pair of a numeric feature.
type numObs struct {
	val float64
	lbl int8
}

// MineStream is MineColumns over a corpus of vectors: the adapter case.
func MineStream(ctx context.Context, mrCfg mapreduce.Config, cfg Config, corpus Corpus) ([]*lf.LF, Report, error) {
	return MineColumns(ctx, mrCfg, cfg, corpus.Schema(), vectorScan(corpus))
}

// MineColumns is the miner: order-1 class counts, numeric observations, and
// class totals all accumulate in one scan (counts are additive, so chunk
// merging is exact); only MaxOrder >= 2 Apriori joins re-scan the corpus. The
// result does not depend on where chunks or views break — the property
// TestMineStreamMatchesMine pins.
func MineColumns(ctx context.Context, mrCfg mapreduce.Config, cfg Config, schema *feature.Schema, corpus ColumnScan) ([]*lf.LF, Report, error) {
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
	// Single accumulation pass: order-1 itemset counts per class, class
	// totals, and (value, label) observations for the numeric miner.
	first := &counter{cfg: mrCfg, schema: schema, order1: true, observe: cfg.NumericQuantiles >= 2, cands: make([][]candidate, schema.Len())}
	if err := first.scan(ctx, corpus); err != nil {
		return nil, report, err
	}
	negCount1, posCount1 := first.order1Keys(0), first.order1Keys(1)
	nNeg, nPos := first.rows[0], first.rows[1]
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
	numLFs := mineNumericObserved(schema, first.observed, nPos, nNeg, cfg, posThreshold, negThreshold)
	report.NumericLFs = len(numLFs)
	lfs = append(lfs, numLFs...)

	sort.Slice(lfs, func(i, j int) bool { return lfs[i].Name < lfs[j].Name })
	return lfs, report, nil
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
func extendFrequent(ctx context.Context, mrCfg mapreduce.Config, schema *feature.Schema, corpus ColumnScan, class int8, out map[string]itemsetCount, maxOrder, minSupport int) error {
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
// whole corpus: one more scan, candidates as intern-ID sets per column.
func countItemsetStream(ctx context.Context, mrCfg mapreduce.Config, schema *feature.Schema, corpus ColumnScan, vote int8, candidates []itemset) (map[string]itemsetCount, error) {
	k := &counter{cfg: mrCfg, schema: schema, cands: make([][]candidate, schema.Len()), candClass: class(vote), candCount: make([]int, len(candidates))}
	for idx, s := range candidates {
		col, _ := schema.Index(s.feat) // a candidate joins itemsets counted under schema
		ids := make([]uint32, len(s.cats))
		for i, c := range s.cats {
			ids[i] = feature.InternID(c)
		}
		k.cands[col] = append(k.cands[col], candidate{ids, idx})
	}
	if err := k.scan(ctx, corpus); err != nil {
		return nil, err
	}
	total := make(map[string]itemsetCount, len(candidates))
	for idx, s := range candidates {
		total[s.key()] = itemsetCount{set: s, count: k.candCount[idx]}
	}
	return total, nil
}

// mineNumericObserved is the numeric threshold miner over pre-collected
// observations (observed[fi] belongs to schema position fi). Observations
// must be in corpus order; quantile cuts and tie handling then match the
// in-memory miner exactly.
func mineNumericObserved(schema *feature.Schema, observed [][]numObs, totalPos, totalNeg int, cfg Config, posThreshold, negThreshold float64) []*lf.LF {
	q := cfg.NumericQuantiles
	if q < 2 {
		return nil
	}
	var out []*lf.LF
	for fi, obs := range observed {
		d := schema.Def(fi)
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

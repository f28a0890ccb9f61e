package lf

import (
	"fmt"
	"math/rand"
	"sort"

	"crossmodal/internal/feature"
)

// Expert simulates a domain expert developing LFs by hand (paper §6.7.1).
// The paper attributes the automatic miner's advantage to corpus coverage:
// "even domain experts are limited to manually examining much smaller data
// volumes". The simulation encodes exactly that asymmetry — the expert
// inspects a small random sample of the development set, estimates which
// feature values look predictive from that sample, and writes category and
// conjunction LFs from those (noisier) estimates.
type Expert struct {
	// SampleSize is how many dev points the expert can examine
	// (hundreds, vs the miner's full corpus).
	SampleSize int
	// MaxLFs caps how many LFs the expert writes.
	MaxLFs int
	// Features restricts which features the expert thinks to look at
	// (experts rarely consider every service); empty means all
	// categorical features.
	Features []string
	// MinPrecision is an absolute floor and MinLift a base-rate multiple:
	// the expert accepts a positive pattern whose sample precision reaches
	// max(MinPrecision, MinLift × sample positive rate), capped at 0.85 —
	// like the miner, experts reason in lift when positives are rare.
	MinPrecision float64
	MinLift      float64
	// MinSupport is the minimum number of sample occurrences before the
	// expert trusts a pattern.
	MinSupport int
	// ConjunctionRate is the probability the expert combines two
	// predicates into a multi-feature conjunction (the paper notes the
	// human LFs were "more complex, multi-feature" rules).
	ConjunctionRate float64
}

// DefaultExpert returns the configuration used in the §6.7.1 comparison.
func DefaultExpert() Expert {
	return Expert{
		SampleSize:   400,
		MaxLFs:       20,
		MinPrecision: 0.05,
		MinLift:      2.5,
		MinSupport:   3,
		// Experts reason over the features they understand semantically
		// (content: topics, objects, keywords, sentiment and the team's
		// own rules) and rarely think to scan other teams' page-content
		// or metadata services — the paper's "engineers often do not
		// possess this expertise" (§4.3).
		Features: []string{
			"topic", "topic_coarse", "objects", "keywords",
			"sentiment", "setting", "kw_spam_rule",
		},
		ConjunctionRate: 0.3,
	}
}

type patternStat struct {
	feat, cat string
	pos, neg  int
}

func (p patternStat) precision(positiveClass bool) float64 {
	total := p.pos + p.neg
	if total == 0 {
		return 0
	}
	if positiveClass {
		return float64(p.pos) / float64(total)
	}
	return float64(p.neg) / float64(total)
}

// Sample draws the points the expert examines from a development set of n
// points: SampleSize distinct indices (all n when SampleSize is not positive
// or exceeds n), in the order drawn from rng.
func (e Expert) Sample(n int, rng *rand.Rand) []int {
	size := e.SampleSize
	if size <= 0 || size > n {
		size = n
	}
	return rng.Perm(n)[:size]
}

// Develop writes LFs from the sample the expert examined (Sample's points,
// in the order drawn, and their labels), drawing its conjunction choices
// from rng after Sample did: it proposes positive LFs for high-sample-precision
// feature values (plus occasional conjunctions) and negative LFs for values
// that look strongly negative.
func (e Expert) Develop(vecs []*feature.Vector, labels []int8, rng *rand.Rand) ([]*LF, error) {
	if len(vecs) != len(labels) {
		return nil, fmt.Errorf("lf: %d vectors vs %d labels", len(vecs), len(labels))
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("lf: empty development sample")
	}
	sampleSize := len(vecs)

	allowed := map[string]bool{}
	for _, f := range e.Features {
		allowed[f] = true
	}
	schema := vecs[0].Schema()

	stats := map[string]*patternStat{}
	var posRate float64
	for i, v := range vecs {
		if labels[i] > 0 {
			posRate++
		}
		for fi := 0; fi < schema.Len(); fi++ {
			d := schema.Def(fi)
			if d.Kind != feature.Categorical {
				continue
			}
			if len(allowed) > 0 && !allowed[d.Name] {
				continue
			}
			val := v.At(fi)
			if val.Missing {
				continue
			}
			for _, c := range val.Categories {
				key := d.Name + "=" + c
				st := stats[key]
				if st == nil {
					st = &patternStat{feat: d.Name, cat: c}
					stats[key] = st
				}
				if labels[i] > 0 {
					st.pos++
				} else {
					st.neg++
				}
			}
		}
	}
	posRate /= float64(sampleSize)

	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var posCands, negCands []*patternStat
	for _, k := range keys {
		st := stats[k]
		if st.pos+st.neg < e.MinSupport {
			continue
		}
		// Experts look for values enriched relative to the base rate.
		posTarget := e.MinPrecision
		if lifted := e.MinLift * posRate; lifted > posTarget {
			posTarget = lifted
		}
		if posTarget > 0.85 {
			posTarget = 0.85
		}
		if st.precision(true) >= posTarget {
			posCands = append(posCands, st)
		}
		if st.precision(false) >= 0.95 && st.pos == 0 && st.neg >= 2*e.MinSupport {
			negCands = append(negCands, st)
		}
	}
	sort.Slice(posCands, func(i, j int) bool {
		pi, pj := posCands[i].precision(true), posCands[j].precision(true)
		if pi != pj {
			return pi > pj
		}
		return posCands[i].feat+posCands[i].cat < posCands[j].feat+posCands[j].cat
	})
	sort.Slice(negCands, func(i, j int) bool {
		if negCands[i].neg != negCands[j].neg {
			return negCands[i].neg > negCands[j].neg
		}
		return negCands[i].feat+negCands[i].cat < negCands[j].feat+negCands[j].cat
	})

	maxLFs := e.MaxLFs
	if maxLFs <= 0 {
		maxLFs = 20
	}
	var lfs []*LF
	for _, st := range posCands {
		if len(lfs) >= maxLFs {
			break
		}
		if len(posCands) > 1 && rng.Float64() < e.ConjunctionRate {
			// Combine with another candidate into a conjunction: more
			// precise, much less coverage.
			other := posCands[rng.Intn(len(posCands))]
			if other != st && other.feat != st.feat {
				conj, err := ConjunctionLF([]string{
					st.feat + "=" + st.cat,
					other.feat + "=" + other.cat,
				}, Positive, "expert")
				if err == nil {
					lfs = append(lfs, conj)
					continue
				}
			}
		}
		lfs = append(lfs, CategoryLF(st.feat, st.cat, Positive, "expert"))
	}
	// Experts add a handful of "obviously benign" negative rules.
	negBudget := maxLFs / 3
	for _, st := range negCands {
		if negBudget == 0 {
			break
		}
		lfs = append(lfs, CategoryLF(st.feat, st.cat, Negative, "expert"))
		negBudget--
	}
	if len(lfs) == 0 {
		return nil, fmt.Errorf("lf: expert found no viable LFs in a sample of %d", sampleSize)
	}
	return lfs, nil
}

// Package lf defines labeling functions (LFs): programmatic, noisy labelers
// that vote positive, negative, or abstain on a data point's common-feature
// representation (paper §4.1). LFs are the unit of weak supervision; they
// are evaluated against a labeled development set of the *old* modality and
// applied at scale to the unlabeled new modality.
package lf

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
)

// Vote values returned by labeling functions.
const (
	Positive int8 = 1
	Negative int8 = -1
	Abstain  int8 = 0
)

// Term is one (feature ∋ category) test of a categorical LF.
type Term struct{ Feature, Category string }

// LF is one labeling function, as data: it votes Vote when every Term holds
// or, with no Terms, when numeric Feature is present and on the Above side of
// Cut (value >= Cut; otherwise value <= Cut) — and abstains otherwise,
// including when a feature is missing or of another kind. Being data, a set
// of LFs compiles to column tests (Compile) and never needs a row's Vector.
type LF struct {
	// Name uniquely identifies the LF in reports.
	Name string
	// Source records how the LF was created: "mined", "expert",
	// "labelprop", or "manual".
	Source string
	Vote   int8

	Terms   []Term
	Feature string
	Cut     float64
	Above   bool
}

// Apply returns the LF's vote on v: the one-row case of Plan.Vote.
func (l *LF) Apply(v *feature.Vector) int8 {
	t := compile(l, v.Schema())
	var buf []uint32
	if !t.dead && t.holds(feature.VectorColumns(v.Schema(), []*feature.Vector{v})[0], 0, &buf) {
		return l.Vote
	}
	return Abstain
}

// String returns the LF's name and source.
func (l *LF) String() string { return fmt.Sprintf("%s(%s)", l.Name, l.Source) }

// CategoryLF votes vote when the named categorical feature contains
// category, and abstains otherwise (including when the feature is missing).
func CategoryLF(featName, category string, vote int8, source string) *LF {
	return &LF{
		Name:   fmt.Sprintf("%s=%s→%+d", featName, category, vote),
		Source: source,
		Vote:   vote,
		Terms:  []Term{{featName, category}},
	}
}

// ConjunctionLF votes vote when every (feature, category) predicate holds,
// and abstains otherwise. Predicates are given as "feat=cat" terms.
func ConjunctionLF(terms []string, vote int8, source string) (*LF, error) {
	preds := make([]Term, len(terms))
	for i, t := range terms {
		parts := strings.SplitN(t, "=", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("lf: bad conjunction term %q (want feat=cat)", t)
		}
		preds[i] = Term{parts[0], parts[1]}
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("lf: empty conjunction")
	}
	return &LF{
		Name:   fmt.Sprintf("%s→%+d", strings.Join(terms, "∧"), vote),
		Source: source,
		Vote:   vote,
		Terms:  preds,
	}, nil
}

// ThresholdLF votes vote when the named numeric feature is present and
// satisfies the comparison (above: value >= cut; otherwise value <= cut).
func ThresholdLF(featName string, cut float64, above bool, vote int8, source string) *LF {
	op := "≥"
	if !above {
		op = "≤"
	}
	return &LF{
		Name:    fmt.Sprintf("%s%s%.3g→%+d", featName, op, cut, vote),
		Source:  source,
		Vote:    vote,
		Feature: featName,
		Cut:     cut,
		Above:   above,
	}
}

// ScoreLF votes using an externally computed per-point score (e.g. the
// label-propagation output, paper §4.4): score >= posCut votes positive,
// score <= negCut votes negative, otherwise abstain. scores is indexed by
// the same corpus order the LF will be applied in, carried via index.
type ScoreLF struct {
	Name    string
	Source  string
	Scores  []float64
	PosCut  float64
	NegCut  float64
	Present []bool // nil means every score is present
}

// VoteAt returns the score LF's vote for corpus position i.
func (s *ScoreLF) VoteAt(i int) int8 {
	if i < 0 || i >= len(s.Scores) {
		return Abstain
	}
	if s.Present != nil && !s.Present[i] {
		return Abstain
	}
	switch {
	case s.Scores[i] >= s.PosCut:
		return Positive
	case s.Scores[i] <= s.NegCut:
		return Negative
	default:
		return Abstain
	}
}

// Matrix is the n×m label matrix of m LF votes on n data points.
type Matrix struct {
	Votes [][]int8 // Votes[i][j] is LF j's vote on point i
	Names []string
}

// NumPoints returns n.
func (m *Matrix) NumPoints() int { return len(m.Votes) }

// NumLFs returns the number of labeling functions.
func (m *Matrix) NumLFs() int { return len(m.Names) }

// AppendScoreLF adds a score-based LF column to the matrix. The score LF
// must cover exactly the matrix's points.
func (m *Matrix) AppendScoreLF(s *ScoreLF) error {
	if len(s.Scores) != m.NumPoints() {
		return fmt.Errorf("lf: score LF covers %d points, matrix has %d", len(s.Scores), m.NumPoints())
	}
	for i := range m.Votes {
		m.Votes[i] = append(m.Votes[i], s.VoteAt(i))
	}
	m.Names = append(m.Names, s.Name)
	return nil
}

// Apply evaluates every LF on every vector (the paper applies LFs as a
// MapReduce job) and returns the label matrix: Plan.Vote over the vectors'
// column adapter, read under the first vector's schema.
func Apply(ctx context.Context, cfg mapreduce.Config, lfs []*LF, vecs []*feature.Vector) (*Matrix, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	schema := new(feature.Schema)
	if len(vecs) > 0 {
		schema = vecs[0].Schema()
	}
	plan := Compile(lfs, schema)
	votes, _ := plan.Vote(cfg, feature.VectorColumns(schema, vecs), len(vecs), [][]int8{})
	return &Matrix{Votes: votes, Names: plan.Names}, nil
}

// Stats summarizes one LF's behaviour on a labeled development set.
type Stats struct {
	Name      string
	Precision float64 // correct votes / non-abstain votes
	Recall    float64 // correct positive votes / positives (for positive LFs); symmetric for negative LFs
	Coverage  float64 // non-abstain votes / points
	Votes     int
}

// EvaluateAll computes Stats for every LF column of m against dev labels in
// one pass over the rows, with a few counters per LF and no column copy.
// Precision counts votes matching the label; recall is class-conditional on
// the voted class (a positive LF's recall is over true positives, a negative
// LF's over true negatives; mixed-vote columns report recall over all points
// whose label matches some vote).
func EvaluateAll(m *Matrix, labels []int8) []Stats {
	out := make([]Stats, m.NumLFs())
	if len(out) == 0 {
		return out
	}
	if len(m.Votes) != len(labels) {
		panic(fmt.Sprintf("lf: %d votes vs %d labels", len(m.Votes), len(labels)))
	}
	// classes[j] is the set of classes LF j votes, a bit per uint8(vote). A
	// correct vote's class is voted, so the recall numerator is correct[j].
	voted, correct, classes := make([]int, len(out)), make([]int, len(out)), make([][4]uint64, len(out))
	var classTotals [256]int
	for i, row := range m.Votes {
		l := labels[i]
		if l != 0 {
			classTotals[uint8(l)]++
		}
		for j, v := range row[:len(out)] {
			if v != 0 {
				voted[j]++
				classes[j][uint8(v)>>6] |= 1 << (uint8(v) & 63)
				if v == l {
					correct[j]++
				}
			}
		}
	}
	for j := range out {
		s := Stats{Name: m.Names[j], Votes: voted[j]}
		if voted[j] > 0 {
			s.Precision = float64(correct[j]) / float64(voted[j])
		}
		var recallDenom int
		for w, set := range classes[j] {
			for ; set != 0; set &= set - 1 {
				recallDenom += classTotals[w*64+bits.TrailingZeros64(set)]
			}
		}
		if recallDenom > 0 {
			s.Recall = float64(correct[j]) / float64(recallDenom)
		}
		if len(m.Votes) > 0 {
			s.Coverage = float64(voted[j]) / float64(len(m.Votes))
		}
		out[j] = s
	}
	return out
}

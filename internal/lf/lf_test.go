package lf

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
)

var testSchema = feature.MustSchema(
	feature.Def{Name: "topic", Kind: feature.Categorical, Set: "C", Servable: true},
	feature.Def{Name: "objects", Kind: feature.Categorical, Set: "C", Servable: true},
	feature.Def{Name: "reports", Kind: feature.Numeric, Set: "D"},
)

func mkVec(t *testing.T, topic string, objects []string, reports float64) *feature.Vector {
	t.Helper()
	v := feature.NewVector(testSchema)
	if topic != "" {
		v.MustSet("topic", feature.CategoricalValue(topic))
	}
	if objects != nil {
		v.MustSet("objects", feature.CategoricalValue(objects...))
	}
	if !math.IsNaN(reports) {
		v.MustSet("reports", feature.NumericValue(reports))
	}
	return v
}

func TestCategoryLF(t *testing.T) {
	l := CategoryLF("topic", "spam", Positive, "manual")
	if got := l.Apply(mkVec(t, "spam", nil, 0)); got != Positive {
		t.Errorf("matching vote = %d", got)
	}
	if got := l.Apply(mkVec(t, "news", nil, 0)); got != Abstain {
		t.Errorf("non-matching vote = %d", got)
	}
	if got := l.Apply(mkVec(t, "", nil, 0)); got != Abstain {
		t.Errorf("missing-feature vote = %d", got)
	}
	if !strings.Contains(l.String(), "manual") {
		t.Errorf("String = %q", l.String())
	}
}

func TestConjunctionLF(t *testing.T) {
	l, err := ConjunctionLF([]string{"topic=spam", "objects=pill"}, Positive, "expert")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Apply(mkVec(t, "spam", []string{"pill", "bottle"}, 0)); got != Positive {
		t.Errorf("both-match vote = %d", got)
	}
	if got := l.Apply(mkVec(t, "spam", []string{"bottle"}, 0)); got != Abstain {
		t.Errorf("partial-match vote = %d", got)
	}
	for _, bad := range [][]string{nil, {"nofield"}, {"=x"}, {"f="}} {
		if _, err := ConjunctionLF(bad, Positive, "x"); err == nil {
			t.Errorf("ConjunctionLF(%v) should fail", bad)
		}
	}
}

func TestThresholdLF(t *testing.T) {
	hi := ThresholdLF("reports", 5, true, Positive, "mined")
	lo := ThresholdLF("reports", 1, false, Negative, "mined")
	if got := hi.Apply(mkVec(t, "", nil, 7)); got != Positive {
		t.Errorf("above vote = %d", got)
	}
	if got := hi.Apply(mkVec(t, "", nil, 3)); got != Abstain {
		t.Errorf("below-cut vote = %d", got)
	}
	if got := lo.Apply(mkVec(t, "", nil, 0.5)); got != Negative {
		t.Errorf("below vote = %d", got)
	}
	missing := feature.NewVector(testSchema)
	if got := hi.Apply(missing); got != Abstain {
		t.Errorf("missing numeric vote = %d", got)
	}
}

func TestScoreLF(t *testing.T) {
	s := &ScoreLF{Scores: []float64{0.9, 0.5, 0.1}, PosCut: 0.8, NegCut: 0.2}
	wants := []int8{Positive, Abstain, Negative}
	for i, w := range wants {
		if got := s.VoteAt(i); got != w {
			t.Errorf("VoteAt(%d) = %d, want %d", i, got, w)
		}
	}
	if got := s.VoteAt(99); got != Abstain {
		t.Errorf("out-of-range vote = %d", got)
	}
	s.Present = []bool{false, true, true}
	if got := s.VoteAt(0); got != Abstain {
		t.Errorf("absent point vote = %d", got)
	}
}

func TestApplyMatrix(t *testing.T) {
	vecs := []*feature.Vector{
		mkVec(t, "spam", nil, 9),
		mkVec(t, "news", nil, 0),
	}
	lfs := []*LF{
		CategoryLF("topic", "spam", Positive, "m"),
		ThresholdLF("reports", 5, true, Positive, "m"),
	}
	m, err := Apply(context.Background(), mapreduce.Config{Workers: 2}, lfs, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPoints() != 2 || m.NumLFs() != 2 {
		t.Fatalf("matrix %dx%d", m.NumPoints(), m.NumLFs())
	}
	if m.Votes[0][0] != Positive || m.Votes[0][1] != Positive {
		t.Errorf("row 0 = %v", m.Votes[0])
	}
	if m.Votes[1][0] != Abstain || m.Votes[1][1] != Abstain {
		t.Errorf("row 1 = %v", m.Votes[1])
	}
	col := column(m, 1)
	if col[0] != Positive || col[1] != Abstain {
		t.Errorf("column 1 = %v", col)
	}
}

func TestAppendScoreLF(t *testing.T) {
	m := &Matrix{Votes: [][]int8{{1}, {0}}, Names: []string{"a"}}
	s := &ScoreLF{Name: "prop", Scores: []float64{0.9, 0.1}, PosCut: 0.8, NegCut: 0.2}
	if err := m.AppendScoreLF(s); err != nil {
		t.Fatal(err)
	}
	if m.NumLFs() != 2 || m.Votes[0][1] != Positive || m.Votes[1][1] != Negative {
		t.Fatalf("matrix after append: %+v", m)
	}
	bad := &ScoreLF{Scores: []float64{1}}
	if err := m.AppendScoreLF(bad); err == nil {
		t.Error("expected size-mismatch error")
	}
}

// evaluateOne is the Stats of one vote column by EvaluateAll, checked against
// the reference evaluateColumn.
func evaluateOne(t *testing.T, name string, votes, labels []int8) Stats {
	t.Helper()
	m := &Matrix{Votes: make([][]int8, len(votes)), Names: []string{name}}
	for i, v := range votes {
		m.Votes[i] = []int8{v}
	}
	s := EvaluateAll(m, labels)[0]
	if ref := evaluateColumn(name, votes, labels); s != ref {
		t.Fatalf("EvaluateAll %+v, reference %+v", s, ref)
	}
	return s
}

func TestEvaluateColumn(t *testing.T) {
	votes := []int8{1, 1, 0, -1, 0, 1}
	labels := []int8{1, -1, 1, -1, -1, 1}
	s := evaluateOne(t, "t", votes, labels)
	// voted: 4, correct: 3 (votes 0,3,5)
	if math.Abs(s.Precision-0.75) > 1e-12 {
		t.Errorf("precision = %v", s.Precision)
	}
	// votes classes {+1,-1}: recallDenom = 3 pos + 3 neg, num = 2 + 1
	if math.Abs(s.Recall-0.5) > 1e-12 {
		t.Errorf("recall = %v", s.Recall)
	}
	if math.Abs(s.Coverage-4.0/6) > 1e-12 {
		t.Errorf("coverage = %v", s.Coverage)
	}
}

func TestEvaluateColumnPositiveOnly(t *testing.T) {
	votes := []int8{1, 0, 0, 0}
	labels := []int8{1, 1, -1, -1}
	s := evaluateOne(t, "p", votes, labels)
	if s.Precision != 1 {
		t.Errorf("precision = %v", s.Precision)
	}
	if s.Recall != 0.5 { // 1 of 2 positives found; negatives not in denominator
		t.Errorf("recall = %v", s.Recall)
	}
}

func TestEvaluateAll(t *testing.T) {
	m := &Matrix{Votes: [][]int8{{1, 0}, {0, -1}}, Names: []string{"a", "b"}}
	stats := EvaluateAll(m, []int8{1, -1})
	if len(stats) != 2 || stats[0].Name != "a" || stats[1].Precision != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestExpertDevelop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var vecs []*feature.Vector
	var labels []int8
	// Topic "bad" is 90% positive; topic "ok" is 95% negative.
	for i := 0; i < 600; i++ {
		if i%3 == 0 {
			lbl := int8(1)
			if rng.Float64() < 0.1 {
				lbl = -1
			}
			vecs = append(vecs, mkVec(t, "bad", []string{"pill"}, 5))
			labels = append(labels, lbl)
		} else {
			lbl := int8(-1)
			if rng.Float64() < 0.05 {
				lbl = 1
			}
			vecs = append(vecs, mkVec(t, "ok", []string{"ball"}, 0))
			labels = append(labels, lbl)
		}
	}
	e := DefaultExpert()
	lfs, err := e.Develop(vecs, labels, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(lfs) == 0 {
		t.Fatal("expert wrote no LFs")
	}
	m, err := Apply(context.Background(), mapreduce.Config{}, lfs, vecs)
	if err != nil {
		t.Fatal(err)
	}
	foundGood := false
	for _, s := range EvaluateAll(m, labels) {
		if s.Precision > 0.7 && s.Coverage > 0.05 {
			foundGood = true
		}
	}
	if !foundGood {
		t.Error("expert produced no usable LF on an easy task")
	}
}

func TestExpertDevelopErrors(t *testing.T) {
	e := DefaultExpert()
	rng := rand.New(rand.NewSource(1))
	if _, err := e.Develop(nil, nil, rng); err == nil {
		t.Error("expected error on empty dev set")
	}
	if _, err := e.Develop([]*feature.Vector{mkVec(t, "a", nil, 0)}, []int8{1, 1}, rng); err == nil {
		t.Error("expected error on length mismatch")
	}
	// All-negative sample with no patterns: expert finds nothing.
	var vecs []*feature.Vector
	var labels []int8
	for i := 0; i < 50; i++ {
		vecs = append(vecs, feature.NewVector(testSchema))
		labels = append(labels, -1)
	}
	if _, err := e.Develop(vecs, labels, rng); err == nil {
		t.Error("expected error when no viable LFs exist")
	}
}

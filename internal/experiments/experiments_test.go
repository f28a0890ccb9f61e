package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"crossmodal/internal/core"
	"crossmodal/internal/resource"
)

// The suite is expensive to build; share one small-scale instance.
var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func smallSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(Config{Scale: 0.15, Seed: 5})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestNewSuiteDefaults(t *testing.T) {
	s, err := NewSuite(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Scale != 1.0 || s.cfg.Seed == 0 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

func TestAllTasks(t *testing.T) {
	tasks := AllTasks()
	if len(tasks) != 5 || tasks[0] != "CT1" || tasks[4] != "CT5" {
		t.Fatalf("AllTasks = %v", tasks)
	}
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	rows, err := s.Table1(context.Background(), []string{"CT1", "CT4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].LabeledText <= 0 || rows[0].PositiveRate <= 0 {
		t.Errorf("bad row: %+v", rows[0])
	}
	// CT4 is the most imbalanced task.
	if rows[1].PositiveRate >= rows[0].PositiveRate {
		t.Errorf("CT4 rate %.3f should be below CT1 %.3f", rows[1].PositiveRate, rows[0].PositiveRate)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "CT1") {
		t.Error("render missing task name")
	}
}

func TestTable2SingleTask(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	rows, err := s.Table2(context.Background(), []string{"CT1"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Text <= 0 || r.Image <= 0 || r.CrossModal <= 0 {
		t.Fatalf("non-positive relative AUPRCs: %+v", r)
	}
	// The cross-modal model should not lose to text-only inference
	// (paper finding 4) — allow slack at this tiny scale.
	if r.CrossModal < 0.7*r.Text {
		t.Errorf("cross-modal %.2f far below text %.2f", r.CrossModal, r.Text)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Cross-Over") {
		t.Error("render missing header")
	}
}

func TestTable3SingleTask(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	rows, err := s.Table3(context.Background(), []string{"CT1"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	for name, v := range map[string]float64{"precision": r.Precision, "recall": r.Recall, "f1": r.F1, "auprc": r.AUPRC} {
		if v <= 0 {
			t.Errorf("%s ratio = %v, want positive", name, v)
		}
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "×") {
		t.Error("render missing ratio marks")
	}
}

func TestFigure5(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	series, err := s.Figure5(context.Background(), "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2 panels", len(series))
	}
	for _, panel := range series {
		if panel.CrossModal <= 0 || len(panel.Supervised) == 0 {
			t.Errorf("degenerate panel %q: %+v", panel.Label, panel)
		}
	}
	var buf bytes.Buffer
	RenderFigure5(&buf, series)
	if !strings.Contains(buf.String(), "Hand-labeled") {
		t.Error("render missing budget column")
	}
}

func TestFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	steps, err := s.Figure6(context.Background(), "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 8 {
		t.Fatalf("steps = %d, want 8", len(steps))
	}
	if steps[0].Label() != "T+A (no image)" {
		t.Errorf("first label = %q", steps[0].Label())
	}
	// The full configuration should outperform the text-A-only start
	// (paper: 0.22 → 1.52).
	if steps[7].Relative <= steps[0].Relative {
		t.Errorf("adding features and data should help: first %.2f, last %.2f",
			steps[0].Relative, steps[7].Relative)
	}
}

func TestFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	rows, err := s.Figure7(context.Background(), "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 prefixes", len(rows))
	}
	last := rows[3]
	if last.Both < last.TextOnly*0.7 {
		t.Errorf("joint %.2f far below text-only %.2f with all sets", last.Both, last.TextOnly)
	}
	var buf bytes.Buffer
	RenderFigure7(&buf, rows)
	if !strings.Contains(buf.String(), "ABCD") {
		t.Error("render missing set labels")
	}
}

func TestFusionComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	rows, err := s.FusionComparison(context.Background(), []string{"CT1"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Early <= 0 || r.Intermediate <= 0 || r.DeViSE <= 0 {
		t.Fatalf("non-positive architecture results: %+v", r)
	}
	// Early fusion should be at least competitive with DeViSE (paper:
	// early wins by 2.21× on average).
	if r.Early < 0.6*r.DeViSE {
		t.Errorf("early %.2f far below DeViSE %.2f", r.Early, r.DeViSE)
	}
}

// TestLFGeneration: §6.7.1's rows are pipeline curations read off their
// Reports — the mined row is the one no-propagation curation Table 3 and the
// ablation row also read, curated once per suite.
func TestLFGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	ctx := context.Background()
	tc, err := s.ctxFor(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	noProp, err := s.curation(ctx, tc, noPropVariant)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.LFGeneration(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Source != "mined" || rows[1].Source != "expert" {
		t.Fatalf("rows = %+v", rows)
	}
	expert := tc.variants[expertNoPropVariant.name]
	for i, cur := range []*core.Curation{noProp, expert} {
		r, rep := rows[i], cur.Report
		want := LFGenResult{Source: r.Source, LFCount: rep.LFCount, CorpusExamined: rep.LFExamined,
			Precision: rep.WSPrecision, Recall: rep.WSRecall, F1: rep.WSF1, Coverage: rep.WSCoverage, EndAUPRC: r.EndAUPRC}
		if r != want {
			t.Errorf("%s row %+v, want its curation's Report %+v", r.Source, r, want)
		}
	}
	if rows[0].CorpusExamined != len(noProp.TextVecs) || rows[0].CorpusExamined <= rows[1].CorpusExamined {
		t.Errorf("miner should examine the whole %d-point corpus, more than the expert: %d vs %d",
			len(noProp.TextVecs), rows[0].CorpusExamined, rows[1].CorpusExamined)
	}
	if rows[0].LFCount == 0 || rows[1].LFCount == 0 {
		t.Error("both sources should produce LFs")
	}

	t3, err := s.Table3(ctx, []string{"CT1"})
	if err != nil {
		t.Fatal(err)
	}
	ablations, err := s.Ablations(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if tc.variants[noPropVariant.name] != noProp {
		t.Error("the no-propagation curation was curated more than once")
	}
	if want := ratio(tc.curation.Report.WSF1, noProp.Report.WSF1); t3[0].F1 != want {
		t.Errorf("Table 3 F1 lift %v, want %v from the shared curation", t3[0].F1, want)
	}
	for _, a := range ablations {
		if a.Name == noPropVariant.name && (a.WSF1 != rows[0].F1 || a.EndAUPRC != rows[0].EndAUPRC) {
			t.Errorf("ablation row %+v disagrees with §6.7.1's mined row %+v", a, rows[0])
		}
	}
	var buf bytes.Buffer
	RenderLFGen(&buf, rows)
	if !strings.Contains(buf.String(), "mined") {
		t.Error("render missing source")
	}
}

func TestRawVsFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	res, err := s.RawVsFeatures(context.Background(), "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if res.RawOnly != 1.0 {
		t.Errorf("raw baseline = %v, want 1.0 by construction", res.RawOnly)
	}
	// The paper finds the feature space beats the raw embedding.
	if res.Features < 1.0 {
		t.Errorf("feature model %.2f should beat the embedding baseline", res.Features)
	}
}

func TestSupervisedCurveMonotoneTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	ctx := context.Background()
	tc, err := s.ctxFor(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	budgets := tc.budgets()
	ends := []int{budgets[0], budgets[len(budgets)-1]}
	curve, err := tc.supervisedCurve(ctx, ends, tc.pipe.SchemaFor(resource.ABCD, true, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 || curve[0].Budget != ends[0] || curve[1].Budget != ends[1] {
		t.Fatalf("curve = %+v, want budgets %v", curve, ends)
	}
	if curve[1].AUPRC <= curve[0].AUPRC {
		t.Errorf("more hand labels should help: %.3f @%d vs %.3f @%d",
			curve[0].AUPRC, curve[0].Budget, curve[1].AUPRC, curve[1].Budget)
	}
}

func TestCrossOver(t *testing.T) {
	curve := []BudgetPoint{{100, 0.3}, {500, 0.5}, {1000, 0.7}}
	if got := crossOver(curve, 0.45); got != 500 {
		t.Errorf("crossOver = %d, want 500", got)
	}
	if got := crossOver(curve, 0.9); got != 0 {
		t.Errorf("unreachable crossOver = %d, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(2, 1); got != 2 {
		t.Errorf("ratio = %v", got)
	}
	if got := ratio(0, 0); got != 1 {
		t.Errorf("ratio(0,0) = %v, want 1", got)
	}
	if got := ratio(1, 0); got != 999 {
		t.Errorf("ratio(1,0) = %v, want 999 sentinel", got)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := smallSuite(t)
	rows, err := s.Ablations(context.Background(), "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 variants", len(rows))
	}
	if rows[0].Name != "full pipeline (default)" {
		t.Errorf("first row = %q", rows[0].Name)
	}
	for _, r := range rows {
		if r.EndAUPRC <= 0 {
			t.Errorf("variant %q has non-positive AUPRC", r.Name)
		}
	}
	var buf bytes.Buffer
	RenderAblations(&buf, rows)
	if !strings.Contains(buf.String(), "majority vote") {
		t.Error("render missing variants")
	}
}

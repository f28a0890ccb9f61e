package experiments

import (
	"context"
	"fmt"
	"io"

	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// Table1Row reports one task's corpus statistics (paper Table 1).
type Table1Row struct {
	Task           string
	LabeledText    int
	UnlabeledImage int
	LabeledImage   int // test set
	PositiveRate   float64
}

// Table1 regenerates the dataset-statistics table. It only needs datasets,
// not curations, so it is cheap.
func (s *Suite) Table1(ctx context.Context, tasks []string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range tasks {
		task, err := synth.TaskByName(name)
		if err != nil {
			return nil, err
		}
		ds, err := synth.BuildDataset(s.world, task, s.datasetConfig())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Task:           name,
			LabeledText:    len(ds.LabeledText),
			UnlabeledImage: len(ds.UnlabeledImage),
			LabeledImage:   len(ds.TestImage),
			PositiveRate:   synth.PositiveRate(ds.TestImage),
		})
	}
	return rows, nil
}

// RenderTable1 writes the rows as a markdown table.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "| Task | n_lbd,text | n_unlbd,image | n_lbd,image | % Pos |")
	fmt.Fprintln(w, "|------|-----------:|--------------:|------------:|------:|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.1f%% |\n",
			r.Task, r.LabeledText, r.UnlabeledImage, r.LabeledImage, 100*r.PositiveRate)
	}
}

// Table2Row reports one task's end-to-end comparison (paper Table 2):
// baseline-relative AUPRC of the fully supervised text model, the weakly
// supervised image model, and the cross-modal model, plus the hand-label
// budget at which a fully supervised image model catches the cross-modal
// one (0 = beyond the pool).
type Table2Row struct {
	Task       string
	Text       float64
	Image      float64
	CrossModal float64
	CrossOver  int
}

// Table2 regenerates the end-to-end comparison.
func (s *Suite) Table2(ctx context.Context, tasks []string) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range tasks {
		tc, err := s.ctxFor(ctx, name)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Task: name}

		spec := tc.pipe.DefaultTrainSpec()
		spec.UseText, spec.UseImage = true, false
		text, err := tc.trainAndEval(ctx, tc.curation, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s text model: %w", name, err)
		}
		row.Text = tc.relative(text)

		spec.UseText, spec.UseImage = false, true
		image, err := tc.trainAndEval(ctx, tc.curation, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s image model: %w", name, err)
		}
		row.Image = tc.relative(image)

		spec.UseText, spec.UseImage = true, true
		cross, err := tc.trainAndEval(ctx, tc.curation, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s cross-modal model: %w", name, err)
		}
		row.CrossModal = tc.relative(cross)

		schema := tc.pipe.SchemaFor(resource.ABCD, true, false)
		curve, err := tc.supervisedCurve(ctx, tc.budgets(), schema)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s supervised curve: %w", name, err)
		}
		row.CrossOver = crossOver(curve, row.CrossModal)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 writes the rows as a markdown table.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "| Task | Text | Image | Cross-Modal | Cross-Over |")
	fmt.Fprintln(w, "|------|-----:|------:|------------:|-----------:|")
	for _, r := range rows {
		co := "beyond pool"
		if r.CrossOver > 0 {
			co = fmt.Sprintf("%d examples", r.CrossOver)
		}
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f | %s |\n",
			r.Task, r.Text, r.Image, r.CrossModal, co)
	}
}

// Table3Row reports label propagation's relative improvement of the
// training-data curation step (paper Table 3): each column is the ratio of
// the with-propagation metric to the mined-LFs-only metric.
type Table3Row struct {
	Task      string
	Precision float64
	Recall    float64
	F1        float64
	AUPRC     float64
}

// Table3 regenerates the label-propagation ablation.
func (s *Suite) Table3(ctx context.Context, tasks []string) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range tasks {
		tc, err := s.ctxFor(ctx, name)
		if err != nil {
			return nil, err
		}
		noProp, err := s.curation(ctx, tc, noPropVariant)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s no-prop curation: %w", name, err)
		}
		spec := tc.pipe.DefaultTrainSpec()
		withAUPRC, err := tc.trainAndEval(ctx, tc.curation, spec)
		if err != nil {
			return nil, err
		}
		withoutAUPRC, err := tc.trainAndEval(ctx, noProp, spec)
		if err != nil {
			return nil, err
		}
		with, without := tc.curation.Report, noProp.Report
		rows = append(rows, Table3Row{
			Task:      name,
			Precision: ratio(with.WSPrecision, without.WSPrecision),
			Recall:    ratio(with.WSRecall, without.WSRecall),
			F1:        ratio(with.WSF1, without.WSF1),
			AUPRC:     ratio(withAUPRC, withoutAUPRC),
		})
	}
	return rows, nil
}

// ratioCell renders a ratio, showing the division-by-zero sentinel as ∞
// (the metric went from zero to nonzero — e.g. label propagation enabling
// recall where mined LFs alone had none).
func ratioCell(r float64) string {
	if r >= 999 {
		return "∞ (from 0)"
	}
	return fmt.Sprintf("%.2f×", r)
}

// ratio returns a/b guarding division by zero: 1 when both are zero (no
// change), +Inf-avoiding large value when only b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 999
	}
	return a / b
}

// RenderTable3 writes the rows as a markdown table.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "| Task | Precision | Recall | F1 | AUPRC |")
	fmt.Fprintln(w, "|------|----------:|-------:|---:|------:|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			r.Task, ratioCell(r.Precision), ratioCell(r.Recall), ratioCell(r.F1), ratioCell(r.AUPRC))
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"crossmodal/internal/feature"
	"crossmodal/internal/metrics"
	"crossmodal/internal/resource"
)

// Figure5Series is one panel of paper Figure 5: the fully supervised
// hand-label budget curve against the (flat) cross-modal pipeline line, for
// one end-model feature configuration. LFs always use all four service sets;
// the bottom panel removes set D from the end models, simulating nonservable
// features (the paper's bottom panel removes C and D).
type Figure5Series struct {
	Label      string
	Sets       []string
	CrossModal float64 // baseline-relative AUPRC of the cross-modal pipeline
	Supervised []BudgetPoint
	CrossOver  int
}

// Figure5 regenerates both panels for the given task (the paper uses CT1).
func (s *Suite) Figure5(ctx context.Context, taskName string) ([]Figure5Series, error) {
	tc, err := s.ctxFor(ctx, taskName)
	if err != nil {
		return nil, err
	}
	panels := []struct {
		label string
		sets  []string
	}{
		{"ABCD (all features servable)", resource.ABCD},
		{"ABC (set D nonservable: LFs only)", []string{resource.SetA, resource.SetB, resource.SetC}},
	}
	var out []Figure5Series
	for _, panel := range panels {
		spec := tc.pipe.DefaultTrainSpec()
		spec.ModelSets = panel.sets
		cross, err := tc.trainAndEval(ctx, tc.curation, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure5 %s cross-modal: %w", panel.label, err)
		}
		schema := tc.pipe.SchemaFor(panel.sets, true, false)
		curve, err := tc.supervisedCurve(ctx, tc.budgets(), schema)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure5 %s curve: %w", panel.label, err)
		}
		rel := tc.relative(cross)
		out = append(out, Figure5Series{
			Label:      panel.label,
			Sets:       panel.sets,
			CrossModal: rel,
			Supervised: curve,
			CrossOver:  crossOver(curve, rel),
		})
	}
	return out, nil
}

// RenderFigure5 writes the series as markdown tables.
func RenderFigure5(w io.Writer, series []Figure5Series) {
	for i, s := range series {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "End-model features %s — cross-modal relative AUPRC %.2f", s.Label, s.CrossModal)
		if s.CrossOver > 0 {
			fmt.Fprintf(w, ", cross-over at %d hand-labeled examples\n", s.CrossOver)
		} else {
			fmt.Fprintf(w, ", no cross-over within the pool\n")
		}
		fmt.Fprintln(w, "\n| Hand-labeled examples | Fully supervised | Cross-modal |")
		fmt.Fprintln(w, "|----------------------:|----------------:|------------:|")
		for _, pt := range s.Supervised {
			fmt.Fprintf(w, "| %d | %.2f | %.2f |\n", pt.Budget, pt.AUPRC, s.CrossModal)
		}
	}
}

// Figure6Step is one bar of the paper's Figure 6 factor analysis: service
// sets are added alternately to the text and image sides.
type Figure6Step struct {
	TextSets  []string
	ImageSets []string // nil means no image data used
	Relative  float64
}

// Label renders the step like the paper's x-axis ("T + AB / I + A").
func (st Figure6Step) Label() string {
	label := "T+" + strings.Join(st.TextSets, "")
	if st.ImageSets == nil {
		return label + " (no image)"
	}
	return label + " / I+" + strings.Join(st.ImageSets, "")
}

// Figure6 regenerates the factor analysis for one task (the paper uses CT1):
// starting from text with set A only, each step adds a feature set to one
// modality. Weak supervision always uses all sets (they are nonservable for
// the restricted end models).
func (s *Suite) Figure6(ctx context.Context, taskName string) ([]Figure6Step, error) {
	tc, err := s.ctxFor(ctx, taskName)
	if err != nil {
		return nil, err
	}
	steps := []Figure6Step{
		{TextSets: []string{"A"}, ImageSets: nil},
		{TextSets: []string{"A"}, ImageSets: []string{"A"}},
		{TextSets: []string{"A", "B"}, ImageSets: []string{"A"}},
		{TextSets: []string{"A", "B"}, ImageSets: []string{"A", "B"}},
		{TextSets: []string{"A", "B", "C"}, ImageSets: []string{"A", "B"}},
		{TextSets: []string{"A", "B", "C"}, ImageSets: []string{"A", "B", "C"}},
		{TextSets: []string{"A", "B", "C", "D"}, ImageSets: []string{"A", "B", "C"}},
		{TextSets: []string{"A", "B", "C", "D"}, ImageSets: []string{"A", "B", "C", "D"}},
	}
	for i := range steps {
		auprc, err := tc.trainMasked(ctx, steps[i].TextSets, steps[i].ImageSets)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure6 step %d: %w", i, err)
		}
		steps[i].Relative = tc.relative(auprc)
	}
	return steps, nil
}

// trainMasked trains the pipeline's early-fusion model on a copy of the
// default curation whose text corpus sees only textSets (plus text-specific
// features) and whose image corpus sees only imageSets (plus image-specific
// features; nil imageSets trains on text alone); the end-model schema is
// their union. This implements the per-modality feature-set configurations
// of Figures 6 and 7.
func (tc *taskContext) trainMasked(ctx context.Context, textSets, imageSets []string) (float64, error) {
	useImage := imageSets != nil
	masked := *tc.curation
	testSchema := tc.pipe.SchemaFor(textSets, false, true)
	masked.TextVecs = maskVectors(masked.TextVecs, testSchema)
	spec := tc.pipe.DefaultTrainSpec()
	spec.UseImage = useImage
	spec.Schema = tc.pipe.SchemaFor(slices.Concat(textSets, imageSets), useImage, true)
	if useImage {
		// Test vectors are masked to the image-side view.
		testSchema = tc.pipe.SchemaFor(imageSets, true, false)
		masked.ImageVecs = maskVectors(masked.ImageVecs, testSchema)
	}
	pred, err := tc.pipe.Train(ctx, &masked, spec)
	if err != nil {
		return 0, err
	}
	return metrics.AUPRC(tc.testLabels, pred.PredictBatch(maskVectors(tc.testVecs, testSchema))), nil
}

func maskVectors(vecs []*feature.Vector, schema *feature.Schema) []*feature.Vector {
	out := make([]*feature.Vector, len(vecs))
	for i, v := range vecs {
		out[i] = v.Reproject(schema)
	}
	return out
}

// RenderFigure6 writes the steps as a markdown table.
func RenderFigure6(w io.Writer, steps []Figure6Step) {
	fmt.Fprintln(w, "| Configuration | Relative AUPRC |")
	fmt.Fprintln(w, "|---------------|---------------:|")
	for _, st := range steps {
		fmt.Fprintf(w, "| %s | %.2f |\n", st.Label(), st.Relative)
	}
}

// Figure7Row is one service-prefix column of the paper's Figure 7 lesion
// study: text-only, image-only, and joint models under the same feature
// sets.
type Figure7Row struct {
	Sets      []string
	TextOnly  float64
	ImageOnly float64
	Both      float64
}

// Figure7 regenerates the modality lesion study for one task.
func (s *Suite) Figure7(ctx context.Context, taskName string) ([]Figure7Row, error) {
	tc, err := s.ctxFor(ctx, taskName)
	if err != nil {
		return nil, err
	}
	prefixes := [][]string{
		{"A"},
		{"A", "B"},
		{"A", "B", "C"},
		{"A", "B", "C", "D"},
	}
	var rows []Figure7Row
	for _, sets := range prefixes {
		row := Figure7Row{Sets: sets}

		textOnly, err := tc.trainMasked(ctx, sets, nil)
		if err != nil {
			return nil, err
		}
		row.TextOnly = tc.relative(textOnly)

		spec := tc.pipe.DefaultTrainSpec()
		spec.ModelSets = sets
		spec.UseText, spec.UseImage = false, true
		imageOnly, err := tc.trainAndEval(ctx, tc.curation, spec)
		if err != nil {
			return nil, err
		}
		row.ImageOnly = tc.relative(imageOnly)

		both, err := tc.trainMasked(ctx, sets, sets)
		if err != nil {
			return nil, err
		}
		row.Both = tc.relative(both)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure7 writes the rows as a markdown table.
func RenderFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintln(w, "| Services | Text only | Image only | Text + Image |")
	fmt.Fprintln(w, "|----------|----------:|-----------:|-------------:|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f |\n",
			strings.Join(r.Sets, ""), r.TextOnly, r.ImageOnly, r.Both)
	}
}

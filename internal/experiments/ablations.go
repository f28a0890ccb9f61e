package experiments

import (
	"context"
	"fmt"
	"io"

	"crossmodal/internal/core"
)

// AblationRow reports one design-choice ablation: the full pipeline with one
// component replaced or removed, on one task.
type AblationRow struct {
	Name string
	// WSF1 is the curated labels' F1 against hidden truth.
	WSF1 float64
	// EndAUPRC is the cross-modal model's baseline-relative AUPRC.
	EndAUPRC float64
}

// Ablations runs the design-choice ablations (DESIGN.md, "Calibration
// decisions") on one task: the dev-anchored label model vs unsupervised EM
// vs majority vote, learned vs uniform propagation-graph feature weights, LF
// deduplication on vs off, and order-1 vs order-2 itemset mining. Each
// variant is the suite's curation with a single switch flipped.
func (s *Suite) Ablations(ctx context.Context, taskName string) ([]AblationRow, error) {
	tc, err := s.ctxFor(ctx, taskName)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		defaultVariant,
		{"label model: unsupervised EM", func(o *core.Options) { o.UseEMLabelModel = true }},
		{"label model: majority vote", func(o *core.Options) { o.UseGenerative = false }},
		{"graph: uniform feature weights", func(o *core.Options) { o.UniformGraphWeights = true }},
		{"LF dedup: off", func(o *core.Options) { o.DisableLFDedup = true }},
		{"mining: order-2 itemsets", func(o *core.Options) { o.Mining.MaxOrder = 2 }},
		noPropVariant,
		{"expert LFs instead of mining", func(o *core.Options) { o.LFSource = core.ExpertLFs }},
	}
	var rows []AblationRow
	for _, v := range variants {
		cur, err := s.curation(ctx, tc, v)
		if err != nil {
			return nil, err
		}
		auprc, err := tc.trainAndEval(ctx, cur, tc.pipe.DefaultTrainSpec())
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q train: %w", v.name, err)
		}
		rows = append(rows, AblationRow{
			Name:     v.name,
			WSF1:     cur.Report.WSF1,
			EndAUPRC: tc.relative(auprc),
		})
	}
	return rows, nil
}

// RenderAblations writes the rows as a markdown table.
func RenderAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "| Variant | WS label F1 | End AUPRC |")
	fmt.Fprintln(w, "|---------|------------:|----------:|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %.3f | %.2f |\n", r.Name, r.WSF1, r.EndAUPRC)
	}
}

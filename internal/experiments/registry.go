package experiments

import (
	"context"
	"fmt"
	"io"
)

// Experiment is one named, runnable unit of the paper's evaluation: it
// computes its result through a Suite and renders it as markdown.
type Experiment struct {
	// Name is the selector used by the -run flag (e.g. "table2").
	Name string
	// Title is the markdown section heading.
	Title string
	// Run computes and renders the experiment. tasks is the task subset for
	// multi-task experiments; single-task experiments (the figures and the
	// CT1 case studies) run on tasks[0].
	Run func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error
}

// Manifest declares every experiment in presentation order. cmd/experiments
// dispatches from this list and the experiments test sweep executes it end
// to end, so an experiment added here is automatically runnable, listed in
// -run validation, and smoke-tested.
func Manifest() []Experiment {
	return []Experiment{
		{
			Name:  "table1",
			Title: "Table 1 — task statistics",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.Table1(ctx, tasks)
				if err != nil {
					return err
				}
				RenderTable1(w, rows)
				return nil
			},
		},
		{
			Name:  "table2",
			Title: "Table 2 — end-to-end relative AUPRC and cross-over points",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.Table2(ctx, tasks)
				if err != nil {
					return err
				}
				RenderTable2(w, rows)
				return nil
			},
		},
		{
			Name:  "table3",
			Title: "Table 3 — label-propagation lift",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.Table3(ctx, tasks)
				if err != nil {
					return err
				}
				RenderTable3(w, rows)
				return nil
			},
		},
		{
			Name:  "figure5",
			Title: "Figure 5 — hand-label budget cross-over",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				series, err := s.Figure5(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderFigure5(w, series)
				return nil
			},
		},
		{
			Name:  "figure6",
			Title: "Figure 6 — organizational-resource factor analysis",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				steps, err := s.Figure6(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderFigure6(w, steps)
				return nil
			},
		},
		{
			Name:  "figure7",
			Title: "Figure 7 — modality lesion study",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.Figure7(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderFigure7(w, rows)
				return nil
			},
		},
		{
			Name:  "fusion",
			Title: "§6.6 — fusion architecture comparison",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.FusionComparison(ctx, tasks)
				if err != nil {
					return err
				}
				RenderFusion(w, rows)
				return nil
			},
		},
		{
			Name:  "lfgen",
			Title: "§6.7.1 — automatic vs expert LF generation",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.LFGeneration(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderLFGen(w, rows)
				return nil
			},
		},
		{
			Name:  "ablations",
			Title: "Design-choice ablations",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				rows, err := s.Ablations(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderAblations(w, rows)
				return nil
			},
		},
		{
			Name:  "streamscale",
			Title: "Streaming curation at scale — disk-backed vs in-memory",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				res, err := s.StreamScale(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderStreamScale(w, res)
				if !res.BitIdentical {
					return fmt.Errorf("experiments: streamed curation diverged from in-memory on %s", res.Task)
				}
				return nil
			},
		},
		{
			Name:  "rawvsfeat",
			Title: "§6.6 — feature space vs raw embedding",
			Run: func(ctx context.Context, w io.Writer, s *Suite, tasks []string) error {
				res, err := s.RawVsFeatures(ctx, tasks[0])
				if err != nil {
					return err
				}
				RenderRawVsFeatures(w, res)
				return nil
			},
		},
	}
}

// ExperimentNames returns the manifest's experiment names in order.
func ExperimentNames() []string {
	m := Manifest()
	names := make([]string, len(m))
	for i, e := range m {
		names[i] = e.Name
	}
	return names
}

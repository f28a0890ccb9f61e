package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"

	"crossmodal/internal/core"
)

// StreamScaleResult summarizes one streamed-curation run against the cached
// in-memory curation of the same task: corpus sizes and whether the streamed probabilistic labels are bit-identical to the
// in-memory ones (they must be — the streamed path's contract).
type StreamScaleResult struct {
	Task                string
	TextRows, ImageRows int
	Chunks              int
	BitIdentical        bool
	WSF1, WSCoverage    float64
}

// StreamScale runs the disk-backed streaming curation path on one task at
// the suite's scale and checks it against the cached in-memory curation.
// The feature store lives in a temp directory that is removed afterwards —
// the experiment measures the streaming machinery, not the artifacts.
func (s *Suite) StreamScale(ctx context.Context, taskName string) (*StreamScaleResult, error) {
	tc, err := s.ctxFor(ctx, taskName)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "crossmodal-streamscale-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sc, err := tc.pipe.CurateStreamed(ctx, s.world, tc.task, s.datasetConfig(), core.StreamOptions{
		Dir: dir, ChunkSize: 2048,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: streamed curate %s: %w", taskName, err)
	}
	defer sc.Close()

	bit := len(sc.ProbLabels) == len(tc.curation.ProbLabels) &&
		sc.Report.LFCount == tc.curation.Report.LFCount &&
		sc.Report.PropIters == tc.curation.Report.PropIters
	if bit {
		for i := range sc.ProbLabels {
			if math.Float64bits(sc.ProbLabels[i]) != math.Float64bits(tc.curation.ProbLabels[i]) ||
				sc.Covered[i] != tc.curation.Covered[i] {
				bit = false
				break
			}
		}
	}

	return &StreamScaleResult{
		Task:         taskName,
		TextRows:     sc.Text.Rows(),
		ImageRows:    sc.Image.Rows(),
		Chunks:       sc.Text.Chunks() + sc.Image.Chunks(),
		BitIdentical: bit,
		WSF1:         sc.Report.WSF1,
		WSCoverage:   sc.Report.WSCoverage,
	}, nil
}

// RenderStreamScale writes the streamed-curation summary.
func RenderStreamScale(w io.Writer, r *StreamScaleResult) {
	verdict := "bit-identical to the in-memory pipeline"
	if !r.BitIdentical {
		verdict = "DIVERGED from the in-memory pipeline (bug!)"
	}
	fmt.Fprintf(w, "Streamed curation on %s: %d text + %d image rows over %d store chunks, %s.\n",
		r.Task, r.TextRows, r.ImageRows, r.Chunks, verdict)
	fmt.Fprintf(w, "WS quality: F1 %.3f at %.0f%% coverage.\n", r.WSF1, 100*r.WSCoverage)
}

package core

import (
	"context"
	"math"
	"testing"
)

// Options.StreamMining must be a pure plumbing change: curation through the
// chunked MineStream path yields bit-identical probabilistic labels,
// coverage, and LF counts to the one-shot mining path. The lifecycle
// controller relies on this — its retrains stream, its golden log must not
// depend on which mining path ran.
func TestStreamMiningCurationBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	lib, ds := testEnv(t)

	run := func(stream bool) *Curation {
		opts := smallOptions()
		opts.StreamMining = stream
		p, err := NewPipeline(lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := p.Curate(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}

	oneShot := run(false)
	streamed := run(true)

	if a, b := oneShot.Report.LFCount, streamed.Report.LFCount; a != b {
		t.Fatalf("LF count differs: one-shot %d, streamed %d", a, b)
	}
	if len(oneShot.ProbLabels) != len(streamed.ProbLabels) {
		t.Fatalf("prob label count differs: %d vs %d", len(oneShot.ProbLabels), len(streamed.ProbLabels))
	}
	for i := range oneShot.ProbLabels {
		if math.Float64bits(oneShot.ProbLabels[i]) != math.Float64bits(streamed.ProbLabels[i]) {
			t.Fatalf("prob label %d differs: %v vs %v", i, oneShot.ProbLabels[i], streamed.ProbLabels[i])
		}
		if oneShot.Covered[i] != streamed.Covered[i] {
			t.Fatalf("coverage %d differs", i)
		}
	}
}

package core

import (
	"context"
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

	streamedEqual(t, asStreamed(run(true)), asStreamed(run(false)))
}

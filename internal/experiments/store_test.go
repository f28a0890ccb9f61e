package experiments

import (
	"context"
	"math"
	"testing"

	"crossmodal/internal/core"
)

// TestStoreDirBitIdentityAndReuse pins the -store contract: a suite routed
// through a disk-backed feature store produces bit-identical curations to
// the regenerating in-memory suite, later runs over the same store (and every
// other mined-LF variant) reuse the featurized chunks instead of recomputing
// them, and an expert-LF variant — which cannot stream — curates in memory.
func TestStoreDirBitIdentityAndReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several curations")
	}
	ctx := context.Background()
	cfg := Config{Scale: 0.04, Seed: 5}

	mem, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcMem, err := mem.ctxFor(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if mem.ReusedChunks() != 0 {
		t.Errorf("in-memory suite reports %d reused chunks, want 0", mem.ReusedChunks())
	}

	storeCfg := cfg
	storeCfg.StoreDir = t.TempDir()
	cold, err := NewSuite(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	tcCold, err := cold.ctxFor(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	if cold.ReusedChunks() != 0 {
		t.Errorf("cold store run reused %d chunks, want 0", cold.ReusedChunks())
	}
	sameCuration(t, "cold store vs in-memory", tcMem.curation, tcCold.curation)

	warm, err := NewSuite(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	tcWarm, err := warm.ctxFor(ctx, "CT1")
	if err != nil {
		t.Fatal(err)
	}
	afterCtx := warm.ReusedChunks()
	if afterCtx == 0 {
		t.Fatal("second run over the same store reused no featurized chunks")
	}
	sameCuration(t, "warm store vs in-memory", tcMem.curation, tcWarm.curation)
	for _, tc := range []*taskContext{tcCold, tcWarm} {
		if tc.baseline != tcMem.baseline {
			t.Errorf("baseline AUPRC %v vs in-memory %v", tc.baseline, tcMem.baseline)
		}
	}

	// The no-propagation variant's featurization is identical, so it reuses
	// the same store; a second lookup is the cached curation.
	noProp, err := warm.curation(ctx, tcWarm, noPropVariant)
	if err != nil {
		t.Fatal(err)
	}
	afterNoProp := warm.ReusedChunks()
	if afterNoProp <= afterCtx {
		t.Errorf("no-prop variant reused no chunks: %d after vs %d before", afterNoProp, afterCtx)
	}
	if again, _ := warm.curation(ctx, tcWarm, noPropVariant); again != noProp || warm.ReusedChunks() != afterNoProp {
		t.Error("second no-prop lookup curated again instead of hitting the cache")
	}

	// Expert LFs cannot stream: under a store the expert variant curates in
	// memory, touches no chunk, and matches the in-memory suite's.
	expWarm, err := warm.curation(ctx, tcWarm, expertNoPropVariant)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedChunks() != afterNoProp {
		t.Errorf("expert variant read the store: %d reused chunks, want %d", warm.ReusedChunks(), afterNoProp)
	}
	expMem, err := mem.curation(ctx, tcMem, expertNoPropVariant)
	if err != nil {
		t.Fatal(err)
	}
	sameCuration(t, "expert variant, store vs in-memory", expMem, expWarm)
}

// sameCuration asserts two curations are bitwise identical.
func sameCuration(t *testing.T, label string, ca, cb *core.Curation) {
	t.Helper()
	if ca.Report.LFCount != cb.Report.LFCount {
		t.Errorf("%s: LF count %d vs %d", label, ca.Report.LFCount, cb.Report.LFCount)
	}
	if len(ca.ProbLabels) != len(cb.ProbLabels) {
		t.Fatalf("%s: %d vs %d prob labels", label, len(ca.ProbLabels), len(cb.ProbLabels))
	}
	for i := range ca.ProbLabels {
		if math.Float64bits(ca.ProbLabels[i]) != math.Float64bits(cb.ProbLabels[i]) {
			t.Fatalf("%s: prob label %d diverged: %v vs %v", label, i, ca.ProbLabels[i], cb.ProbLabels[i])
		}
		if ca.Covered[i] != cb.Covered[i] {
			t.Fatalf("%s: coverage bit %d diverged", label, i)
		}
	}
}

package active

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"crossmodal/internal/core"
	"crossmodal/internal/metrics"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

var (
	envOnce sync.Once
	envPipe *core.Pipeline
	envCur  *core.Curation
	envDS   *synth.Dataset
	envErr  error
)

func env(t *testing.T) (*core.Pipeline, *core.Curation, *synth.Dataset) {
	t.Helper()
	envOnce.Do(func() {
		world := synth.MustWorld(synth.DefaultConfig())
		lib, err := resource.StandardLibrary(world)
		if err != nil {
			envErr = err
			return
		}
		task, err := synth.TaskByName("CT1")
		if err != nil {
			envErr = err
			return
		}
		ds, err := synth.BuildDataset(world, task, synth.DatasetConfig{
			Seed: 12, NumText: 4000, NumUnlabeledImage: 1500, NumHandLabelPool: 1500, NumTest: 1500,
		})
		if err != nil {
			envErr = err
			return
		}
		opts := core.DefaultOptions()
		opts.MaxGraphSeeds, opts.GraphDevNodes = 900, 300
		pipe, err := core.NewPipeline(lib, opts)
		if err != nil {
			envErr = err
			return
		}
		cur, err := pipe.Curate(context.Background(), ds)
		if err != nil {
			envErr = err
			return
		}
		envPipe, envCur, envDS = pipe, cur, ds
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envPipe, envCur, envDS
}

func truthOracle(p *synth.Point) int8 { return p.Label }

func TestRunActiveLearning(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pipe, cur, ds := env(t)
	res, err := Run(context.Background(), pipe, cur, ds.HandLabelPool, ds.TestImage, truthOracle, Config{
		Strategy: Importance, BatchSize: 100, Rounds: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	if res.Rounds[2].Reviewed != 300 {
		t.Errorf("cumulative reviewed = %d, want 300", res.Rounds[2].Reviewed)
	}
	if res.Rounds[2].PositivesFound < res.Rounds[0].PositivesFound {
		t.Error("cumulative positives must be nondecreasing")
	}
	final := res.Rounds[len(res.Rounds)-1].TestAUPRC
	if final < res.Initial*0.85 {
		t.Errorf("review should not collapse the model: initial %.3f, final %.3f", res.Initial, final)
	}
	// The returned predictor is the model the last round evaluated.
	testVecs, err := pipe.Featurize(context.Background(), ds.TestImage)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.AUPRC(synth.Labels(ds.TestImage), res.Predictor.PredictBatch(testVecs)); got != final {
		t.Errorf("returned predictor's test AUPRC %v, last round's %v", got, final)
	}
}

func TestImportanceFindsMorePositivesThanRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pipe, cur, ds := env(t)
	ctx := context.Background()
	imp, err := Run(ctx, pipe, cur, ds.HandLabelPool, ds.TestImage, truthOracle, Config{
		Strategy: Importance, BatchSize: 120, Rounds: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Run(ctx, pipe, cur, ds.HandLabelPool, ds.TestImage, truthOracle, Config{
		Strategy: Random, BatchSize: 120, Rounds: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if imp.Rounds[1].PositivesFound <= rnd.Rounds[1].PositivesFound {
		t.Errorf("importance sampling found %d positives, random found %d — expected more",
			imp.Rounds[1].PositivesFound, rnd.Rounds[1].PositivesFound)
	}
}

func TestRunValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pipe, cur, ds := env(t)
	ctx := context.Background()
	if _, err := Run(ctx, pipe, cur, nil, ds.TestImage, truthOracle, Config{}); err == nil {
		t.Error("expected error for empty pool")
	}
	if _, err := Run(ctx, pipe, cur, ds.HandLabelPool, ds.TestImage, nil, Config{}); err == nil {
		t.Error("expected error for nil oracle")
	}
}

func TestPoolExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pipe, cur, ds := env(t)
	small := ds.HandLabelPool[:40]
	res, err := Run(context.Background(), pipe, cur, small, ds.TestImage, truthOracle, Config{
		Strategy: Random, BatchSize: 30, Rounds: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 points at 30/round: round 1 reviews 30, round 2 the last 10,
	// then the loop stops.
	if len(res.Rounds) != 2 || res.Rounds[1].Reviewed != 40 {
		t.Fatalf("rounds = %+v", res.Rounds)
	}
}

func TestSelfTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pipe, cur, ds := env(t)
	pred, used, err := SelfTrain(context.Background(), pipe, cur, ds.HandLabelPool, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pred == nil {
		t.Fatal("nil predictor")
	}
	if used == 0 {
		t.Log("no confident pseudo-labels at 0.9 (acceptable, just checking plumbing)")
	}
	if _, _, err := SelfTrain(context.Background(), pipe, cur, ds.HandLabelPool, 1.5, 1); err == nil {
		t.Error("expected error for confidence out of range")
	}
}

func TestSelectBatch(t *testing.T) {
	scores := []float64{0.9, 0.5, 0.1, 0.55, 0.95}
	rng := rand.New(rand.NewSource(1))

	got := selectBatch(Uncertainty, scores, map[int]bool{}, 2, rng)
	if len(got) != 2 {
		t.Fatalf("batch = %v", got)
	}
	want := map[int]bool{1: true, 3: true} // closest to 0.5
	for _, idx := range got {
		if !want[idx] {
			t.Errorf("uncertainty picked %d (score %.2f)", idx, scores[idx])
		}
	}

	got = selectBatch(Importance, scores, map[int]bool{}, 2, rng)
	wantTop := map[int]bool{0: true, 4: true}
	for _, idx := range got {
		if !wantTop[idx] {
			t.Errorf("importance picked %d (score %.2f)", idx, scores[idx])
		}
	}

	// Reviewed points are excluded.
	got = selectBatch(Importance, scores, map[int]bool{4: true}, 1, rng)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("exclusion failed: %v", got)
	}

	// Exhausted pool.
	all := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	if got := selectBatch(Random, scores, all, 3, rng); got != nil {
		t.Errorf("exhausted pool should return nil, got %v", got)
	}
}

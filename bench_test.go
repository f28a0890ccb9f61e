// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) plus per-stage microbenchmarks. Each experiment benchmark performs
// one full regeneration per iteration at a reduced corpus scale; the
// full-scale numbers come from cmd/experiments (EXPERIMENTS.md,
// "Regenerating the numbers").
//
//	go test -bench=. -benchmem
package crossmodal_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"crossmodal"
	"crossmodal/internal/experiments"
)

// benchScale keeps one experiment-benchmark iteration in the seconds range.
const benchScale = 0.15

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

// suite returns a shared, cache-warm experiment suite so benchmarks measure
// experiment regeneration, not world construction.
func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite, benchErr = experiments.NewSuite(experiments.Config{Scale: benchScale, Seed: 5})
		if benchErr != nil {
			return
		}
		// Warm the CT1 caches (dataset, curation, baseline) so per-table
		// benchmarks measure their own work.
		_, benchErr = benchSuite.Table1(context.Background(), []string{"CT1"})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// ct1 is the task subset of the experiment benchmarks.
var ct1 = []string{"CT1"}

// benchExperiment times one regeneration of an experiment per iteration.
func benchExperiment(b *testing.B, run func(context.Context, *experiments.Suite) (any, error)) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Table1(ctx, ct1) })
}

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Table2(ctx, ct1) })
}

func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Table3(ctx, ct1) })
}

func BenchmarkFigure5(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Figure5(ctx, "CT1") })
}

func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Figure6(ctx, "CT1") })
}

func BenchmarkFigure7(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Figure7(ctx, "CT1") })
}

func BenchmarkFusionComparison(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.FusionComparison(ctx, ct1) })
}

func BenchmarkLFGeneration(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.LFGeneration(ctx, "CT1") })
}

func BenchmarkRawVsFeatures(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.RawVsFeatures(ctx, "CT1") })
}

// --- Per-stage microbenchmarks ---

// benchEnv builds a small dataset once for stage benchmarks.
type benchEnvT struct {
	lib  *crossmodal.Library
	pipe *crossmodal.Pipeline
	ds   *crossmodal.Dataset
	task *crossmodal.Task
}

var (
	envOnce sync.Once
	env     benchEnvT
	envErr  error
)

func stageEnv(b *testing.B) benchEnvT {
	b.Helper()
	envOnce.Do(func() {
		world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
		env.lib, envErr = crossmodal.StandardLibrary(world)
		if envErr != nil {
			return
		}
		env.task, envErr = crossmodal.TaskByName("CT1")
		if envErr != nil {
			return
		}
		task := env.task
		cfg := crossmodal.DatasetConfig{
			Seed: 9, NumText: 3000, NumUnlabeledImage: 1000, NumHandLabelPool: 200, NumTest: 200,
		}
		env.ds, envErr = crossmodal.BuildDataset(world, task, cfg)
		if envErr != nil {
			return
		}
		opts := crossmodal.DefaultOptions()
		opts.MaxGraphSeeds, opts.GraphDevNodes = 800, 300
		env.pipe, envErr = crossmodal.NewPipeline(env.lib, opts)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// BenchmarkFeaturization measures organizational-resource feature generation
// throughput (pipeline stage A).
func BenchmarkFeaturization(b *testing.B) {
	e := stageEnv(b)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.pipe.Featurize(ctx, e.ds.LabeledText); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	points := float64(len(e.ds.LabeledText) * b.N)
	b.ReportMetric(points/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/points, "ns/point")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/points, "B/point")
}

// BenchmarkMining measures automatic LF generation over the dev corpus
// (pipeline stage B, §4.3).
func BenchmarkMining(b *testing.B) {
	e := stageEnv(b)
	ctx := context.Background()
	vecs, err := e.pipe.Featurize(ctx, e.ds.LabeledText)
	if err != nil {
		b.Fatal(err)
	}
	labels := crossmodal.Labels(e.ds.LabeledText)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := crossmodal.MineLFs(ctx, crossmodal.DefaultMiningConfig(), vecs, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVideoFeaturization measures frame-split video featurization.
func BenchmarkVideoFeaturization(b *testing.B) {
	e := stageEnv(b)
	ctx := context.Background()
	videos := crossmodal.SampleVideo(e.lib.World(), e.task, 500, 5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.pipe.Featurize(ctx, videos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(videos)*b.N)/b.Elapsed().Seconds(), "videos/s")
}

func BenchmarkAblations(b *testing.B) {
	benchExperiment(b, func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Ablations(ctx, "CT1") })
}

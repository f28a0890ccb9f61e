// Command crossmodal runs the cross-modal adaptation pipeline end to end on
// one synthetic task and prints a stage-by-stage report: mined labeling
// functions, weak-supervision quality, and the trained model's AUPRC against
// the text-only, image-only, and embedding-baseline comparisons.
//
// Usage:
//
//	crossmodal [-task CT1] [-scale 1.0] [-seed 17] [-fusion early|intermediate|devise]
//	           [-no-labelprop] [-expert-lfs] [-workers N] [-v]
//	           [-trace trace.json] [-trace-summary]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"crossmodal/internal/core"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// runConfig carries the parsed flags; validate rejects bad combinations
// before any corpus is built.
type runConfig struct {
	task         string
	scale        float64
	seed         int64
	fusion       string
	noLabelProp  bool
	expertLFs    bool
	workers      int
	verbose      bool
	cpuProfile   string
	memProfile   string
	tracePath    string
	traceSummary bool
}

func (c runConfig) validate() error {
	if _, err := synth.TaskByName(c.task); err != nil {
		return err
	}
	if c.scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %v", c.scale)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", c.workers)
	}
	switch core.FusionKind(c.fusion) {
	case core.EarlyFusion, core.IntermediateFusion, core.DeViSE:
	default:
		return fmt.Errorf("unknown fusion kind %q (want early, intermediate, or devise)", c.fusion)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crossmodal: ")
	var cfg runConfig
	flag.StringVar(&cfg.task, "task", "CT1", "classification task (CT1..CT5)")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "corpus scale factor")
	flag.Int64Var(&cfg.seed, "seed", 17, "random seed")
	flag.StringVar(&cfg.fusion, "fusion", "early", "fusion architecture: early, intermediate, devise")
	flag.BoolVar(&cfg.noLabelProp, "no-labelprop", false, "disable the label-propagation LF")
	flag.BoolVar(&cfg.expertLFs, "expert-lfs", false, "use simulated-expert LFs instead of mining")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines per parallel stage (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.verbose, "v", false, "print per-LF development statistics")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&cfg.tracePath, "trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or ui.perfetto.dev)")
	flag.BoolVar(&cfg.traceSummary, "trace-summary", false, "print the aggregated stage tree to stderr on exit")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg runConfig) (err error) {
	if err := cfg.validate(); err != nil {
		return err
	}
	var summaryW io.Writer
	if cfg.traceSummary {
		summaryW = os.Stderr
	}
	stop, err := trace.Capture(cfg.tracePath, summaryW, cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	return pipelineReport(cfg)
}

// singleModalitySpec is the pipeline's train spec narrowed to one corpus,
// for the text-only and image-only comparison rows. There is nothing to fuse
// in one modality, so it always trains with early fusion: inheriting -fusion
// devise here failed the whole run with "DeViSE needs both modalities" after
// the pipeline had finished.
func singleModalitySpec(pipe *core.Pipeline, text bool) core.TrainSpec {
	spec := pipe.DefaultTrainSpec()
	spec.UseText, spec.UseImage = text, !text
	spec.Fusion = core.EarlyFusion
	return spec
}

func pipelineReport(cfg runConfig) error {
	taskName, scale, seed := cfg.task, cfg.scale, cfg.seed
	fusionKind, noLabelProp, expertLFs := cfg.fusion, cfg.noLabelProp, cfg.expertLFs
	workers, verbose := cfg.workers, cfg.verbose
	ctx := context.Background()
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return err
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return err
	}
	task, err := synth.TaskByName(taskName)
	if err != nil {
		return err
	}
	dsCfg := synth.DefaultDatasetConfig().Scaled(scale, 1)
	dsCfg.Seed = seed
	ds, err := synth.BuildDataset(world, task, dsCfg)
	if err != nil {
		return err
	}
	fmt.Printf("task %s: %d labeled text, %d unlabeled image, %d test (%.1f%% positive)\n",
		task.Name, len(ds.LabeledText), len(ds.UnlabeledImage), len(ds.TestImage),
		100*synth.PositiveRate(ds.TestImage))

	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Workers = workers
	opts.Fusion = core.FusionKind(fusionKind)
	opts.UseLabelProp = !noLabelProp
	if expertLFs {
		opts.LFSource = core.ExpertLFs
	}
	pipe, err := core.NewPipeline(lib, opts)
	if err != nil {
		return err
	}
	res, err := pipe.Run(ctx, ds)
	if err != nil {
		return err
	}
	rep := res.Curation.Report
	fmt.Printf("\ncuration: %s\n", rep.Mining)
	fmt.Printf("labeling functions: %d (coverage %.1f%%)\n", rep.LFCount, 100*rep.WSCoverage)
	if opts.UseLabelProp {
		fmt.Printf("label propagation: %d iterations, cuts pos≥%.3f neg≤%.3f\n",
			rep.PropIters, rep.Cuts.Pos, rep.Cuts.Neg)
	}
	fmt.Printf("weak-supervision label quality vs hidden truth: P=%.3f R=%.3f F1=%.3f\n",
		rep.WSPrecision, rep.WSRecall, rep.WSF1)
	if verbose {
		fmt.Println("\nper-LF dev statistics:")
		devStats := rep.DevStats
		sort.Slice(devStats, func(i, j int) bool { return devStats[i].Name < devStats[j].Name })
		for _, s := range devStats {
			fmt.Printf("  %-44s p=%.3f r=%.4f cov=%.4f\n", s.Name, s.Precision, s.Recall, s.Coverage)
		}
	}

	// Comparisons.
	crossAUPRC, err := pipe.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage)
	if err != nil {
		return err
	}
	mcfg := model.Config{Epochs: 6, LearningRate: 0.02, Seed: 11, Workers: workers}
	basePred, err := pipe.TrainSupervised(ctx, ds.HandLabelPool, pipe.EmbeddingOnlySchema(), mcfg)
	if err != nil {
		return err
	}
	baseAUPRC, err := pipe.EvaluateAUPRC(ctx, basePred, ds.TestImage)
	if err != nil {
		return err
	}
	textPred, err := pipe.Train(ctx, res.Curation, singleModalitySpec(pipe, true))
	if err != nil {
		return err
	}
	textAUPRC, err := pipe.EvaluateAUPRC(ctx, textPred, ds.TestImage)
	if err != nil {
		return err
	}
	imagePred, err := pipe.Train(ctx, res.Curation, singleModalitySpec(pipe, false))
	if err != nil {
		return err
	}
	imageAUPRC, err := pipe.EvaluateAUPRC(ctx, imagePred, ds.TestImage)
	if err != nil {
		return err
	}

	fmt.Printf("\ntest AUPRC (base rate %.3f):\n", metrics.BaseRate(synth.Labels(ds.TestImage)))
	rows := []struct {
		name  string
		auprc float64
	}{
		{"embedding baseline (fully supervised)", baseAUPRC},
		{"text only (fully supervised, transferred)", textAUPRC},
		{"image only (weakly supervised)", imageAUPRC},
		{fmt.Sprintf("cross-modal (%s fusion)", opts.Fusion), crossAUPRC},
	}
	for _, r := range rows {
		fmt.Printf("  %-44s %.3f (%.2f× baseline)\n", r.name, r.auprc, metrics.Relative(r.auprc, baseAUPRC))
	}
	if crossAUPRC < baseAUPRC {
		fmt.Fprintln(os.Stderr, "warning: cross-modal model below embedding baseline at this scale")
	}
	return nil
}

// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the synthetic substrate: Table 1 (task statistics),
// Table 2 (end-to-end relative AUPRC and cross-over points), Table 3 (label
// propagation lift), Figure 5 (hand-label budget cross-over curves), Figure
// 6 (organizational-resource factor analysis), Figure 7 (modality lesion
// study), the §6.6 fusion-architecture comparison, and the §6.7.1 automatic
// vs expert LF comparison.
//
// All AUPRC numbers are reported relative to the paper's baseline: a fully
// supervised image model trained on only the pre-trained image embedding
// (§6.3). Absolute values depend on the synthetic substrate; the paper's
// qualitative shape — who wins, roughly by what factor, where cross-overs
// fall — is the reproduction target (DESIGN.md, "Substitutions").
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"crossmodal/internal/core"
	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// Config sizes and seeds the experiment suite.
type Config struct {
	// Scale multiplies the default corpus sizes (1.0 reproduces the
	// headline numbers; smaller values give fast smoke runs).
	Scale float64
	// Seed drives the world and all dataset sampling.
	Seed int64
	// Workers parallelizes featurization and LF application.
	Workers int
	// StoreDir, when set, routes curation through the disk-backed streaming
	// path rooted there (one subdirectory per task). Chunks featurized on a
	// previous run at the same scale and seed are reused instead of being
	// recomputed, and the result is bit-identical to the in-memory path.
	StoreDir string
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Seed: 17}
}

// Suite holds the world, resource library and per-task caches shared by all
// experiments.
type Suite struct {
	cfg   Config
	world *synth.World
	lib   *resource.Library

	mu    sync.Mutex // guards tasks
	tasks map[string]*taskContext

	curMu  sync.Mutex // guards every taskContext's variants, and reused
	reused int        // store chunks whose featurization was skipped (StoreDir runs)
}

// taskContext caches the expensive artifacts for one classification task.
type taskContext struct {
	task       *synth.Task
	ds         *synth.Dataset
	pipe       *core.Pipeline // default options: trains every variant
	curation   *core.Curation // the default variant's curation
	variants   map[string]*core.Curation
	testVecs   []*feature.Vector
	testLabels []int8
	baseline   float64 // AUPRC of the embedding-only supervised model
}

// variant is one pipeline configuration the experiments curate under: name
// keys the suite's curation cache and labels ablation rows, modify turns the
// suite's default options into the variant's.
type variant struct {
	name   string
	modify func(*core.Options)
}

// The variants more than one experiment reads.
var (
	defaultVariant = variant{"full pipeline (default)", func(*core.Options) {}}
	// noPropVariant is Table 3's denominator, §6.7.1's mined row and the
	// "no label propagation" ablation row.
	noPropVariant = variant{"no label propagation", func(o *core.Options) { o.UseLabelProp = false }}
	// expertNoPropVariant is §6.7.1's expert row.
	expertNoPropVariant = variant{"expert LFs, no label propagation", func(o *core.Options) {
		o.UseLabelProp = false
		o.LFSource = core.ExpertLFs
	}}
)

// NewSuite builds a suite.
func NewSuite(cfg Config) (*Suite, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 17
	}
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return nil, err
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return nil, err
	}
	return &Suite{cfg: cfg, world: world, lib: lib, tasks: make(map[string]*taskContext)}, nil
}

// datasetConfig scales the default corpus sizes.
func (s *Suite) datasetConfig() synth.DatasetConfig {
	base := synth.DefaultDatasetConfig().Scaled(s.cfg.Scale, 200)
	base.Seed = s.cfg.Seed
	return base
}

// endModelConfig is the logistic-regression end model used by most
// experiments (the paper deploys LR or small DNNs, §6.3). workers shards
// minibatches across goroutines; 0 inherits the pipeline's Workers knob
// when the config flows through core, or GOMAXPROCS otherwise.
func endModelConfig(workers int) model.Config {
	return model.Config{Epochs: 6, LearningRate: 0.02, Seed: 11, Workers: workers}
}

// pipelineOptions returns the default pipeline configuration, sized to the
// suite scale.
func (s *Suite) pipelineOptions() core.Options {
	o := core.DefaultOptions()
	o.Workers = s.cfg.Workers
	o.Model = endModelConfig(s.cfg.Workers)
	o.Seed = s.cfg.Seed
	if s.cfg.Scale < 1 {
		o.MaxGraphSeeds = int(float64(o.MaxGraphSeeds) * s.cfg.Scale)
		o.GraphDevNodes = int(float64(o.GraphDevNodes) * s.cfg.Scale)
		if o.MaxGraphSeeds < 200 {
			o.MaxGraphSeeds = 200
		}
		if o.GraphDevNodes < 100 {
			o.GraphDevNodes = 100
		}
	}
	return o
}

// ctxFor returns (building and caching on first use) the task context.
func (s *Suite) ctxFor(ctx context.Context, taskName string) (*taskContext, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tc, ok := s.tasks[taskName]; ok {
		return tc, nil
	}
	task, err := synth.TaskByName(taskName)
	if err != nil {
		return nil, err
	}
	ds, err := synth.BuildDataset(s.world, task, s.datasetConfig())
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(s.lib, s.pipelineOptions())
	if err != nil {
		return nil, err
	}
	tc := &taskContext{task: task, ds: ds, pipe: pipe, variants: make(map[string]*core.Curation)}
	if tc.curation, err = s.curation(ctx, tc, defaultVariant); err != nil {
		return nil, err
	}
	if tc.testVecs, err = pipe.Featurize(ctx, ds.TestImage); err != nil {
		return nil, err
	}
	tc.testLabels = synth.Labels(ds.TestImage)
	// Baseline: fully supervised image model on the pre-trained embedding
	// only, trained on the whole hand-label pool (§6.3).
	basePred, err := pipe.TrainSupervised(ctx, ds.HandLabelPool, pipe.EmbeddingOnlySchema(), endModelConfig(s.cfg.Workers))
	if err != nil {
		return nil, err
	}
	tc.baseline = tc.evaluate(ctx, basePred)
	if tc.baseline <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline for %s", taskName)
	}
	s.tasks[taskName] = tc
	return tc, nil
}

// curation returns tc's curation under v, curating it on first use: each
// (task, variant) curates once per suite, and always through curate, so
// Config.StoreDir applies to every variant.
func (s *Suite) curation(ctx context.Context, tc *taskContext, v variant) (*core.Curation, error) {
	s.curMu.Lock()
	defer s.curMu.Unlock()
	if cur, ok := tc.variants[v.name]; ok {
		return cur, nil
	}
	opts := s.pipelineOptions()
	v.modify(&opts)
	pipe, err := core.NewPipeline(s.lib, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: variant %q: %w", v.name, err)
	}
	cur, err := s.curate(ctx, pipe, tc.ds)
	if err != nil {
		return nil, fmt.Errorf("experiments: curate %s, %s: %w", tc.task.Name, v.name, err)
	}
	tc.variants[v.name] = cur
	return cur, nil
}

// curate runs one curation, in memory by default or through the disk-backed
// streaming path when Config.StoreDir is set. The streamed path spills
// featurized chunks under StoreDir/<task> and, on later runs against the
// same store (including every other variant, whose featurization is
// identical), reuses committed chunks instead of recomputing them; with
// GraphWindow 0 its output is bit-identical to Pipeline.Curate.
func (s *Suite) curate(ctx context.Context, pipe *core.Pipeline, ds *synth.Dataset) (*core.Curation, error) {
	if s.cfg.StoreDir == "" {
		return pipe.Curate(ctx, ds)
	}
	sc, err := pipe.CurateStreamed(ctx, s.world, ds.Task, s.datasetConfig(), core.StreamOptions{
		Dir:       filepath.Join(s.cfg.StoreDir, ds.Task.Name),
		ChunkSize: 2048,
		Resume:    true,
	})
	if err != nil {
		return nil, err
	}
	cur, merr := sc.Materialize(ctx)
	s.reused += sc.ReusedChunks
	if cerr := sc.Close(); merr == nil {
		merr = cerr
	}
	if merr != nil {
		return nil, merr
	}
	// Materialize only carries the corpora the stores hold; the experiments
	// need the full generated dataset (e.g. UnlabeledImage ground truth).
	cur.Dataset = ds
	return cur, nil
}

// ReusedChunks reports how many featurized store chunks were reused from
// Config.StoreDir across all curations so far (always 0 without a store).
func (s *Suite) ReusedChunks() int {
	s.curMu.Lock()
	defer s.curMu.Unlock()
	return s.reused
}

// evaluate returns a predictor's AUPRC on the cached test set.
func (tc *taskContext) evaluate(ctx context.Context, pred fusion.Predictor) float64 {
	_, span := trace.Start(ctx, "eval")
	defer span.End()
	span.SetInt("points", int64(len(tc.testVecs)))
	auprc := metrics.AUPRC(tc.testLabels, pred.PredictBatch(tc.testVecs))
	span.SetFloat("auprc", auprc)
	return auprc
}

// relative converts an absolute AUPRC to the baseline-relative form.
func (tc *taskContext) relative(auprc float64) float64 {
	return metrics.Relative(auprc, tc.baseline)
}

// trainAndEval trains one variant from the curation and evaluates it.
func (tc *taskContext) trainAndEval(ctx context.Context, cur *core.Curation, spec core.TrainSpec) (float64, error) {
	pred, err := tc.pipe.Train(ctx, cur, spec)
	if err != nil {
		return 0, err
	}
	return tc.evaluate(ctx, pred), nil
}

// budgets returns the hand-label budget ladder used by the cross-over
// experiments: a geometric sweep over the pool.
func (tc *taskContext) budgets() []int {
	pool := len(tc.ds.HandLabelPool)
	fracs := []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0}
	var out []int
	for _, f := range fracs {
		n := int(float64(pool) * f)
		if n >= 20 && (len(out) == 0 || n > out[len(out)-1]) {
			out = append(out, n)
		}
	}
	return out
}

// BudgetPoint is one point on a hand-label budget curve (Figure 5).
type BudgetPoint struct {
	Budget int
	AUPRC  float64
}

// supervisedCurve trains a fully supervised image model on the first n
// hand-labeled pool points for each budget n, over the given schema, and
// returns the baseline-relative AUPRCs.
func (tc *taskContext) supervisedCurve(ctx context.Context, budgets []int, schema *feature.Schema) ([]BudgetPoint, error) {
	var curve []BudgetPoint
	for _, n := range budgets {
		pred, err := tc.pipe.TrainSupervised(ctx, tc.ds.HandLabelPool[:n], schema, endModelConfig(0))
		if err != nil {
			return nil, fmt.Errorf("experiments: supervised budget %d: %w", n, err)
		}
		curve = append(curve, BudgetPoint{Budget: n, AUPRC: tc.relative(tc.evaluate(ctx, pred))})
	}
	return curve, nil
}

// crossOver returns the smallest budget on the curve whose supervised AUPRC
// meets or beats target, or 0 if no budget does (the cross-over lies beyond
// the pool — the paper reports these as very large cross-over points).
func crossOver(curve []BudgetPoint, target float64) int {
	for _, pt := range curve {
		if pt.AUPRC >= target {
			return pt.Budget
		}
	}
	return 0
}

// AllTasks lists the evaluation tasks in order.
func AllTasks() []string {
	tasks := synth.StandardTasks()
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}

// Package crossmodal is a from-scratch reproduction of "Leveraging
// Organizational Resources to Adapt Models to New Data Modalities" (Suri et
// al., PVLDB 13(12), 2020): a production-style pipeline that adapts existing
// classification tasks to a new data modality without hand labeling it.
//
// The pipeline augments the classic three-step split architecture:
//
//  1. Feature generation: organizational resources — model-based services,
//     aggregate statistics, rule-based services — transform data points of
//     every modality into a common, structured feature space.
//  2. Training-data curation: weak supervision labels the new modality —
//     labeling functions are mined automatically by frequent itemset
//     mining, augmented with label propagation over a feature-similarity
//     graph, and denoised by a generative label model into probabilistic
//     labels.
//  3. Model training: a multi-modal architecture (early fusion by default)
//     jointly trains on the labeled old modality and the weakly labeled new
//     modality.
//
// Because the paper's corpora and services are Google-internal, this package
// ships a synthetic latent-world substrate (DESIGN.md, "Substitutions", has
// the argument): hidden entities are rendered into text and image (and
// video) modalities through noisy observation channels, and simulated
// organizational services recover shared structure from either modality.
//
// # Quickstart
//
// Example_quickstart runs the pipeline end to end on one task: world,
// standard library, dataset, [NewPipeline], [Pipeline.Run] and an AUPRC on
// the never-labeled image modality. The other Example_* functions are the
// paper's scenarios (§1 moderation, §3.1.1 video frames, §6.7.1 mined vs
// expert LFs, §7.4 monitored parallel deployment); `go test` checks what
// each prints. The programs under cmd/ run the pipeline, serve a model and
// drive a drift episode from the command line; internal/experiments
// regenerates every table and figure of the paper's evaluation.
package crossmodal

import (
	"context"

	"crossmodal/internal/core"
	"crossmodal/internal/experiments"
	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/labelmodel"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/monitor"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// Core data-substrate types.
type (
	// World is the synthetic latent world all data points render.
	World = synth.World
	// WorldConfig parametrizes a World.
	WorldConfig = synth.Config
	// Task is one binary classification task over entities.
	Task = synth.Task
	// Dataset bundles the corpora for one task.
	Dataset = synth.Dataset
	// DatasetConfig sets corpus sizes.
	DatasetConfig = synth.DatasetConfig
	// Point is one data point of a concrete modality.
	Point = synth.Point
	// Modality identifies a data modality.
	Modality = synth.Modality
)

// Feature-space types.
type (
	// Schema describes a common feature space.
	Schema = feature.Schema
	// Vector is one point's feature values.
	Vector = feature.Vector
	// FeatureDef describes one feature.
	FeatureDef = feature.Def
)

// Organizational-resource types.
type (
	// Library is a collection of organizational resources.
	Library = resource.Library
	// Resource is one organizational service.
	Resource = resource.Resource
)

// Pipeline types.
type (
	// Pipeline is the cross-modal adaptation pipeline.
	Pipeline = core.Pipeline
	// Options configures a pipeline.
	Options = core.Options
	// Result is a completed pipeline run.
	Result = core.Result
	// Curation is the reusable output of the feature-generation and
	// weak-supervision stages.
	Curation = core.Curation
	// TrainSpec selects one end-model variant.
	TrainSpec = core.TrainSpec
	// StreamOptions configures the disk-backed streaming curation path.
	StreamOptions = core.StreamOptions
	// StreamedCuration is Curation's streaming analogue: probabilistic
	// labels plus open feature stores instead of materialized vectors.
	StreamedCuration = core.StreamedCuration
	// Predictor scores feature vectors with P(y = +1).
	Predictor = fusion.Predictor
	// FusionKind selects the multi-modal training architecture.
	FusionKind = core.FusionKind
)

// Fusion architectures (paper §5, Figure 4).
const (
	EarlyFusion        = core.EarlyFusion
	IntermediateFusion = core.IntermediateFusion
	DeViSE             = core.DeViSE
)

// Modalities of the evaluation.
const (
	Text  = synth.Text
	Image = synth.Image
	Video = synth.Video
)

// Experiment-suite types (reproduce the paper's tables and figures).
type (
	// Suite runs the paper's evaluation experiments.
	Suite = experiments.Suite
	// SuiteConfig sizes and seeds the suite.
	SuiteConfig = experiments.Config
)

// DefaultWorldConfig returns the world configuration used by the evaluation.
func DefaultWorldConfig() WorldConfig { return synth.DefaultConfig() }

// NewWorld builds a synthetic world.
func NewWorld(cfg WorldConfig) (*World, error) { return synth.NewWorld(cfg) }

// MustWorld is NewWorld that panics on error.
func MustWorld(cfg WorldConfig) *World { return synth.MustWorld(cfg) }

// StandardTasks returns the five evaluation tasks CT1–CT5 (paper Table 1).
func StandardTasks() []*Task { return synth.StandardTasks() }

// TaskByName returns a standard task by name ("CT1".."CT5").
func TaskByName(name string) (*Task, error) { return synth.TaskByName(name) }

// DefaultDatasetConfig returns the evaluation's corpus sizes.
func DefaultDatasetConfig() DatasetConfig { return synth.DefaultDatasetConfig() }

// BuildDataset samples the corpora for one task.
func BuildDataset(w *World, task *Task, cfg DatasetConfig) (*Dataset, error) {
	return synth.BuildDataset(w, task, cfg)
}

// SampleVideo draws video points (rendered as image-frame bundles).
func SampleVideo(w *World, task *Task, n, frames int, seed int64) []*Point {
	return synth.SampleVideo(w, task, n, frames, seed)
}

// StandardLibrary assembles the evaluation's organizational resources
// (service sets A–D plus modality-specific features; paper §6.2).
func StandardLibrary(w *World) (*Library, error) { return resource.StandardLibrary(w) }

// NewPipeline builds a cross-modal adaptation pipeline.
func NewPipeline(lib *Library, opts Options) (*Pipeline, error) {
	return core.NewPipeline(lib, opts)
}

// DefaultOptions returns the evaluation's pipeline configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewSuite builds the experiment suite that regenerates the paper's tables
// and figures.
func NewSuite(cfg SuiteConfig) (*Suite, error) { return experiments.NewSuite(cfg) }

// AUPRC computes the area under the precision-recall curve, the paper's
// headline metric (§6.3).
func AUPRC(labels []int8, scores []float64) float64 { return metrics.AUPRC(labels, scores) }

// Labels extracts ground-truth labels from points.
func Labels(pts []*Point) []int8 { return synth.Labels(pts) }

// PositiveRate returns the fraction of positive points.
func PositiveRate(pts []*Point) float64 { return synth.PositiveRate(pts) }

// Weak-supervision building blocks, exposed for programmatic use (the
// pipeline drives them automatically; Example_lfmining uses them directly).
type (
	// LabelingFunction is one programmatic labeler over the common
	// feature space.
	LabelingFunction = lf.LF
	// LFStats summarizes a labeling function on a labeled dev set.
	LFStats = lf.Stats
	// LFMatrix is the votes of many LFs on many points.
	LFMatrix = lf.Matrix
	// Expert simulates a human expert authoring LFs from a small sample.
	Expert = lf.Expert
	// MiningConfig sets automatic LF-generation thresholds.
	MiningConfig = mining.Config
	// MiningReport summarizes a mining run.
	MiningReport = mining.Report
	// LabelModel is the fitted generative label model.
	LabelModel = labelmodel.Model
	// LabelModelConfig configures label-model fitting.
	LabelModelConfig = labelmodel.Config
)

// LF vote values.
const (
	VotePositive = lf.Positive
	VoteNegative = lf.Negative
	VoteAbstain  = lf.Abstain
)

// DefaultMiningConfig returns the evaluation's LF-mining thresholds.
func DefaultMiningConfig() MiningConfig { return mining.DefaultConfig() }

// MineLFs generates labeling functions from a labeled development corpus by
// frequent itemset mining (paper §4.3).
func MineLFs(ctx context.Context, cfg MiningConfig, vecs []*Vector, labels []int8) ([]*LabelingFunction, MiningReport, error) {
	return mining.Mine(ctx, mapreduce.Config{}, cfg, vecs, labels)
}

// DefaultExpert returns the simulated-expert configuration of §6.7.1.
func DefaultExpert() Expert { return lf.DefaultExpert() }

// ApplyLFs evaluates labeling functions over a corpus into a vote matrix.
func ApplyLFs(ctx context.Context, lfs []*LabelingFunction, vecs []*Vector) (*LFMatrix, error) {
	return lf.Apply(ctx, mapreduce.Config{}, lfs, vecs)
}

// EvaluateLFs computes each LF's precision, recall and coverage on a labeled
// development set.
func EvaluateLFs(m *LFMatrix, labels []int8) []LFStats { return lf.EvaluateAll(m, labels) }

// FitLabelModel estimates the generative label model from a labeled
// development vote matrix (paper §4.1/§4.2).
func FitLabelModel(ctx context.Context, m *LFMatrix, labels []int8, cfg LabelModelConfig) (*LabelModel, error) {
	return labelmodel.FitSupervised(ctx, m, labels, cfg)
}

// Post-deployment: parallel-model monitoring with budgeted human review
// (§7.4). The drift-driven retrain-and-promote loop is internal/lifecycle's,
// run by cmd/lifecycle.
type (
	// ReviewOracle reveals a point's true label (a human reviewer).
	ReviewOracle = monitor.Oracle
	// MonitorConfig controls an online model comparison.
	MonitorConfig = monitor.Config
	// Comparison is the outcome of a monitored comparison.
	Comparison = monitor.Comparison
)

// CompareModels estimates two candidates' live precision and recall on
// traffic using a budgeted mix of random and importance-sampled human review.
func CompareModels(nameA string, a Predictor, nameB string, b Predictor, traffic []*Point, vecs []*Vector, oracle ReviewOracle, cfg MonitorConfig) (*Comparison, error) {
	return monitor.Compare(nameA, a, nameB, b, traffic, vecs, oracle, cfg)
}

// FeatureStore is a bounded, in-memory LRU cache of featurized points — the
// paper's precomputed-feature store (§2.3). It persists nothing; the
// disk-backed store is internal/featurestore/disk.
type FeatureStore = featurestore.Store

// NewFeatureStore builds a feature store over a resource library holding at
// most capacity vectors (0 = unbounded).
func NewFeatureStore(lib *Library, capacity int) (*FeatureStore, error) {
	return featurestore.New(lib, capacity)
}

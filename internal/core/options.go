// Package core implements the paper's primary contribution: the end-to-end
// cross-modal adaptation pipeline (Figure 3). Given labeled data of existing
// modalities and unlabeled data of a new modality, it
//
//  1. generates a common feature space by applying organizational resources
//     to both modalities (§3, internal/resource);
//  2. curates probabilistic training labels for the new modality by weak
//     supervision — automatically mined labeling functions (§4.3,
//     internal/mining) augmented with label propagation for borderline
//     examples (§4.4, internal/labelprop) and denoised by a generative
//     label model (§4.1, internal/labelmodel);
//  3. trains a multi-modal end model over all data and label sources (§5,
//     internal/fusion).
package core

import (
	"fmt"

	"crossmodal/internal/labelmodel"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/mining"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
)

// FusionKind selects the multi-modal training architecture (§5).
type FusionKind string

// The three architectures of Figure 4.
const (
	EarlyFusion        FusionKind = "early"
	IntermediateFusion FusionKind = "intermediate"
	DeViSE             FusionKind = "devise"
)

// LFSource selects how labeling functions are authored.
type LFSource string

// Mined LFs come from frequent itemset mining (§4.3); Expert LFs from the
// simulated human expert (§6.7.1).
const (
	MinedLFs  LFSource = "mined"
	ExpertLFs LFSource = "expert"
)

// Options configures a Pipeline run.
type Options struct {
	// LFSets are the service sets whose features feed labeling functions
	// (nonservable features included — LFs run offline, §4.1) and, servable
	// features only, the discriminative end model (TrainSpec.ModelSets
	// varies the latter per variant). Default: A, B, C, D.
	LFSets []string
	// IncludeModalityFeatures adds the modality-specific feature sets
	// (pre-trained image embeddings, text-only features) to the end
	// model, matching the paper's T+... and I+... configurations.
	// Default true.
	IncludeModalityFeatures bool

	// LFSource selects mined or simulated-expert LFs. Default MinedLFs.
	LFSource LFSource

	// UseLabelProp augments mined LFs with a label-propagation LF (§4.4).
	// Default true.
	UseLabelProp bool
	// UseGenerative denoises LF votes with the generative model; false
	// falls back to majority vote. Default true.
	UseGenerative bool
	// UseEMLabelModel fits the label model by unsupervised EM on the
	// new-modality vote matrix instead of anchoring it on the labeled dev
	// matrix (ablation; dev anchoring is the default and the better
	// choice: EXPERIMENTS.md, "Design-choice ablations (-run ablations)").
	UseEMLabelModel bool
	// UniformGraphWeights disables the dev-learned per-feature edge
	// weights in the propagation graph (ablation).
	UniformGraphWeights bool
	// DisableLFDedup keeps near-duplicate LFs (ablation; duplicates break
	// the label model's independence assumption).
	DisableLFDedup bool

	// Fusion selects the training architecture. Default EarlyFusion.
	Fusion FusionKind

	// Mining, Graph, Prop, LabelModel and Model configure the stages.
	Mining     mining.Config
	Graph      labelprop.GraphConfig
	Prop       labelprop.PropConfig
	LabelModel labelmodel.Config
	Model      model.Config

	// MaxGraphSeeds bounds how many labeled text points seed the
	// propagation graph; GraphDevNodes how many labeled text points are
	// held out unseeded to tune the score cuts (§4.4). Defaults 3000 and
	// 1000.
	MaxGraphSeeds, GraphDevNodes int
	// PosCutLift is the dev-set precision target for the positive
	// propagation-score cut, as a multiple of the dev positive rate
	// (clamped to [0.03, 0.8]); NegCutPrecision is the absolute precision
	// target for the negative cut. Defaults 6 and 0.97.
	PosCutLift, NegCutPrecision float64

	// StreamMining makes Curate hand the miner the in-memory dev corpus in
	// 2048-row chunks instead of one whole-corpus chunk. Results are
	// identical (MineStream's contract); the lifecycle controller turns
	// this on so retraining exercises the same chunk-merge path a
	// production re-mine over the disk store would.
	StreamMining bool

	// MaxVocab caps one-hot vocabularies in the end model (default 0:
	// unlimited).
	MaxVocab int
	// Workers parallelizes featurization and LF application.
	Workers int
	// Seed drives all pipeline randomness.
	Seed int64
}

// DefaultOptions returns the configuration used by the experiment suite:
// all four service sets for both LFs and the end model, mined LFs with label
// propagation, the generative label model, and early fusion over both
// modalities.
func DefaultOptions() Options {
	return Options{
		LFSets:                  resource.ABCD,
		IncludeModalityFeatures: true,
		LFSource:                MinedLFs,
		UseLabelProp:            true,
		UseGenerative:           true,
		Fusion:                  EarlyFusion,
		Mining:                  mining.DefaultConfig(),
		Graph:                   defaultGraph(),
		MaxGraphSeeds:           3000,
		GraphDevNodes:           1000,
		PosCutLift:              6,
		NegCutPrecision:         0.97,
		Model:                   model.Config{Epochs: 6, LearningRate: 0.02, Seed: 11},
		Seed:                    11,
	}
}

// defaultGraph is the propagation graph the experiment suite builds: K 10,
// blocked on the fine and coarse topic. DefaultOptions uses it, and
// withDefaults fills each zero field of Options.Graph from it.
func defaultGraph() labelprop.GraphConfig {
	return labelprop.GraphConfig{
		K:             10,
		BlockFeatures: []string{"topic", "topic_coarse"},
		MaxCandidates: 200,
	}
}

func (o Options) withDefaults() Options {
	def := defaultGraph()
	if o.Graph.K <= 0 {
		o.Graph.K = def.K
	}
	if len(o.Graph.BlockFeatures) == 0 {
		o.Graph.BlockFeatures = def.BlockFeatures
	}
	if o.Graph.MaxCandidates <= 0 {
		o.Graph.MaxCandidates = def.MaxCandidates
	}
	if len(o.LFSets) == 0 {
		o.LFSets = resource.ABCD
	}
	if o.LFSource == "" {
		o.LFSource = MinedLFs
	}
	if o.Fusion == "" {
		o.Fusion = EarlyFusion
	}
	if o.MaxGraphSeeds <= 0 {
		o.MaxGraphSeeds = 3000
	}
	if o.GraphDevNodes <= 0 {
		o.GraphDevNodes = 1000
	}
	if o.PosCutLift <= 0 {
		o.PosCutLift = 6
	}
	if o.NegCutPrecision <= 0 {
		o.NegCutPrecision = 0.97
	}
	if o.Mining.MaxOrder == 0 {
		o.Mining = mining.DefaultConfig()
	}
	return o
}

func (o Options) validate() error {
	switch o.Fusion {
	case EarlyFusion, IntermediateFusion, DeViSE:
	default:
		return fmt.Errorf("core: unknown fusion kind %q", o.Fusion)
	}
	switch o.LFSource {
	case MinedLFs, ExpertLFs:
	default:
		return fmt.Errorf("core: unknown LF source %q", o.LFSource)
	}
	return nil
}

// Package fusion implements the three cross-modal model-training
// architectures the paper evaluates (§5, Figure 4): early fusion (merge all
// modalities' features into one dataset), intermediate fusion (concatenate
// independently learned per-modality embeddings into a final jointly trained
// model), and DeViSE (project the new modality into an embedding learned on
// existing modalities and reuse the frozen old-modality prediction head).
package fusion

import (
	"context"
	"fmt"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/model"
	"crossmodal/internal/trace"
)

// Corpus is one training data source: vectors of a single data modality with
// probabilistic targets (hard labels are 0/1). Every example weighs the same.
type Corpus struct {
	Name    string
	Vectors []*feature.Vector
	Targets []float64
}

// HardTargets turns hard labels into training targets: 1 for a positive
// label, 0 otherwise.
func HardTargets(labels []int8) []float64 {
	targets := make([]float64, len(labels))
	for i, l := range labels {
		if l > 0 {
			targets[i] = 1
		}
	}
	return targets
}

func (c Corpus) validate() error {
	if len(c.Vectors) == 0 {
		return fmt.Errorf("fusion: corpus %q is empty", c.Name)
	}
	if len(c.Targets) != len(c.Vectors) {
		return fmt.Errorf("fusion: corpus %q has %d vectors vs %d targets", c.Name, len(c.Vectors), len(c.Targets))
	}
	return nil
}

// Config controls fusion training.
type Config struct {
	// Schema is the end-model feature space — typically the servable
	// subset of the common feature space (nonservable features may feed
	// LFs but never the discriminative model, paper §4.1).
	Schema *feature.Schema
	// Model configures the underlying networks.
	Model model.Config
	// MaxVocab caps one-hot vocabularies (0 = unlimited).
	MaxVocab int
}

func (c Config) validate() error {
	if c.Schema == nil || c.Schema.Len() == 0 {
		return fmt.Errorf("fusion: empty schema")
	}
	return nil
}

// Predictor scores feature vectors with P(y = +1).
type Predictor interface {
	Predict(v *feature.Vector) float64
	PredictBatch(vs []*feature.Vector) []float64
}

// mapWorkers returns the mapreduce config implied by the model config's
// Workers knob (0 = GOMAXPROCS).
func mapWorkers(cfg Config) mapreduce.Config {
	return mapreduce.Config{Workers: cfg.Model.Workers}
}

// predictAll scores vectors in parallel with fn, which must be safe for
// concurrent use. Each slot is written independently, so the result is
// identical for any worker count.
func predictAll(cfg mapreduce.Config, vs []*feature.Vector, fn func(*feature.Vector) float64) []float64 {
	out, _ := mapreduce.Map(nil, cfg, vs, func(v *feature.Vector) (float64, error) {
		return fn(v), nil
	})
	return out
}

// pooled merges all corpora into single slices. Vectors keep their own
// schemas: fitting and transforming match features by name.
func pooled(corpora []Corpus) (vecs []*feature.Vector, targets []float64) {
	for _, c := range corpora {
		vecs = append(vecs, c.Vectors...)
		targets = append(targets, c.Targets...)
	}
	return vecs, targets
}

// EarlyModel is the early-fusion predictor: one vectorizer and one network
// over the merged multi-modality dataset. Modality-specific features are
// simply missing (and flagged so) for the other modalities.
type EarlyModel struct {
	vz      *feature.Vectorizer
	net     *model.MLP
	workers int
	prec    model.Precision // artifact-carried precision stamp; selects nothing
	arena   sync.Pool       // *feature.Encoder: reusable sparse batch buffers
}

// TrainEarly fits the early-fusion model on all corpora: vectors encode
// straight to sparse rows and the network trains on those.
func TrainEarly(ctx context.Context, corpora []Corpus, cfg Config) (*EarlyModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(corpora) == 0 {
		return nil, fmt.Errorf("fusion: no corpora")
	}
	for _, c := range corpora {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	ctx, span := trace.Start(ctx, "fusion.early")
	defer span.End()
	vecs, targets := pooled(corpora)
	span.SetInt("rows", int64(len(vecs)))
	vctx, vspan := trace.Start(ctx, "fusion.vectorize")
	vz := feature.FitVectorizer(cfg.Schema, vecs, feature.WithMaxVocabulary(cfg.MaxVocab))
	rows := vz.TransformSparse(vecs, cfg.Model.Workers)
	trace.SetInt(vctx, "dims", int64(vz.Width()))
	vspan.End()
	net, err := model.TrainRows(ctx, rows, targets, nil, cfg.Model)
	if err != nil {
		return nil, err
	}
	return &EarlyModel{vz: vz, net: net, workers: cfg.Model.Workers}, nil
}

// encoder takes a pooled batch buffer; the caller returns it to m.arena.
func (m *EarlyModel) encoder() *feature.Encoder {
	if e, _ := m.arena.Get().(*feature.Encoder); e != nil {
		return e
	}
	return new(feature.Encoder)
}

// score is the one scoring path: vectors encode into a pooled sparse block
// (grown monotonically) and the network scores it on the exact float64
// engine into out, so a steady-state batch allocates nothing.
func (m *EarlyModel) score(vs []*feature.Vector, out []float64) {
	e := m.encoder()
	m.vz.Encode(e, vs)
	m.net.PredictRowsInto(&e.Rows, out)
	m.arena.Put(e)
}

// earlyChunk is how many vectors one PredictBatch work item scores.
const earlyChunk = 128

// Predict implements Predictor.
func (m *EarlyModel) Predict(v *feature.Vector) float64 {
	var out [1]float64
	m.score([]*feature.Vector{v}, out[:])
	return out[0]
}

// PredictBatch implements Predictor, sharded across the model's workers.
func (m *EarlyModel) PredictBatch(vs []*feature.Vector) []float64 {
	out := make([]float64, len(vs))
	mapreduce.ForChunks(mapreduce.Config{Workers: m.workers}, len(vs), earlyChunk, func(lo, hi int) {
		m.score(vs[lo:hi], out[lo:hi])
	})
	return out
}

// SetServePrecision sets the precision stamp artifacts carry (see
// artifact.go). It selects nothing: the model scores on the float64 engine
// at every precision.
func (m *EarlyModel) SetServePrecision(p model.Precision) error {
	if !p.Valid() {
		return fmt.Errorf("fusion: invalid serve precision %d", int(p))
	}
	m.prec = p
	return nil
}

// ServePrecision reports the precision stamp.
func (m *EarlyModel) ServePrecision() model.Precision { return m.prec }

// PredictBatchQInto is the serving hot path: PredictBatch's scores, computed
// serially into out without allocating in steady state.
func (m *EarlyModel) PredictBatchQInto(vs []*feature.Vector, out []float64) {
	if len(out) != len(vs) {
		panic(fmt.Sprintf("fusion: PredictBatchQInto out length %d, want %d", len(out), len(vs)))
	}
	m.score(vs, out)
}

// Hidden returns the activation feeding the model's prediction layer; the
// DeViSE architecture anchors its projection on this.
func (m *EarlyModel) Hidden(v *feature.Vector) []float64 {
	e := m.encoder()
	defer m.arena.Put(e)
	m.vz.Encode(e, []*feature.Vector{v})
	return m.net.Hidden(e.Row(0))
}

// PredictFromHidden applies only the frozen prediction head.
func (m *EarlyModel) PredictFromHidden(h []float64) float64 {
	return m.net.PredictFromHidden(h)
}

// IntermediateModel is the intermediate-fusion predictor: one network per
// modality trained independently, their pre-prediction activations
// concatenated into a final jointly trained network (paper §5: a second
// pass over all data where shared features enter every per-modality model).
type IntermediateModel struct {
	vz      *feature.Vectorizer
	parts   []*model.MLP
	final   *model.MLP
	workers int
}

// TrainIntermediate fits the two-stage intermediate-fusion model.
func TrainIntermediate(ctx context.Context, corpora []Corpus, cfg Config) (*IntermediateModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(corpora) == 0 {
		return nil, fmt.Errorf("fusion: no corpora")
	}
	for _, c := range corpora {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	ctx, span := trace.Start(ctx, "fusion.intermediate")
	defer span.End()
	span.SetInt("modalities", int64(len(corpora)))
	allVecs, allTargets := pooled(corpora)
	vz := feature.FitVectorizer(cfg.Schema, allVecs, feature.WithMaxVocabulary(cfg.MaxVocab))

	// Stage 1: independent per-modality models.
	m := &IntermediateModel{vz: vz, workers: cfg.Model.Workers}
	seed := cfg.Model.Seed
	for ci, c := range corpora {
		rows := vz.TransformSparse(c.Vectors, cfg.Model.Workers)
		mcfg := cfg.Model
		mcfg.Seed = seed + int64(ci)*101
		net, err := model.TrainRows(ctx, rows, c.Targets, nil, mcfg)
		if err != nil {
			return nil, fmt.Errorf("fusion: modality %q: %w", c.Name, err)
		}
		m.parts = append(m.parts, net)
	}

	// Stage 2: final model over concatenated embeddings of every point.
	concat, err := mapreduce.Map(nil, mapWorkers(cfg), allVecs, func(v *feature.Vector) ([]float64, error) {
		return m.embed(v), nil
	})
	if err != nil {
		return nil, err
	}
	mcfg := cfg.Model
	mcfg.Seed = seed + 7919
	final, err := model.Train(ctx, concat, allTargets, nil, mcfg)
	if err != nil {
		return nil, err
	}
	m.final = final
	return m, nil
}

// embed concatenates every per-modality model's hidden activation for v,
// all fed from one sparse encoding of it.
func (m *IntermediateModel) embed(v *feature.Vector) []float64 {
	var e feature.Encoder
	m.vz.Encode(&e, []*feature.Vector{v})
	var out []float64
	for _, part := range m.parts {
		out = append(out, part.Hidden(e.Row(0))...)
	}
	return out
}

// Predict implements Predictor.
func (m *IntermediateModel) Predict(v *feature.Vector) float64 {
	return m.final.PredictProba(m.embed(v))
}

// PredictBatch implements Predictor, sharded across the model's workers.
func (m *IntermediateModel) PredictBatch(vs []*feature.Vector) []float64 {
	return predictAll(mapreduce.Config{Workers: m.workers}, vs, m.Predict)
}

// DeViSEModel adapts the DeViSE architecture to the cross-modal setting
// (paper §5): model A is trained on existing modalities and frozen; model B
// is pre-trained on the weakly supervised new modality; a linear projection
// P maps B's embedding onto A's; at inference a new-modality point flows
// through B, then P, then A's frozen prediction layer.
type DeViSEModel struct {
	a       *EarlyModel
	b       *EarlyModel
	proj    *model.Projection
	workers int
}

// TrainDeViSE fits the three-stage DeViSE pipeline. oldCorpora are the
// existing (labeled) modalities; newCorpus is the weakly supervised new
// modality.
func TrainDeViSE(ctx context.Context, oldCorpora []Corpus, newCorpus Corpus, cfg Config) (*DeViSEModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, "fusion.devise")
	defer span.End()
	a, err := TrainEarly(ctx, oldCorpora, cfg)
	if err != nil {
		return nil, fmt.Errorf("fusion: devise model A: %w", err)
	}
	bcfg := cfg
	bcfg.Model.Seed = cfg.Model.Seed + 31
	b, err := TrainEarly(ctx, []Corpus{newCorpus}, bcfg)
	if err != nil {
		return nil, fmt.Errorf("fusion: devise model B: %w", err)
	}
	// Train P to match B's embedding (Y) to frozen A's embedding (X) over
	// the new-modality corpus, whose shared features exist in both.
	type pair struct{ src, dst []float64 }
	pairs, err := mapreduce.Map(nil, mapWorkers(cfg), newCorpus.Vectors, func(v *feature.Vector) (pair, error) {
		return pair{src: b.Hidden(v), dst: a.Hidden(v)}, nil
	})
	if err != nil {
		return nil, err
	}
	src := make([][]float64, len(pairs))
	dst := make([][]float64, len(pairs))
	for i, p := range pairs {
		src[i], dst[i] = p.src, p.dst
	}
	proj, err := model.FitProjection(ctx, src, dst, 25, 0.02, cfg.Model.Seed+63, cfg.Model.Workers)
	if err != nil {
		return nil, fmt.Errorf("fusion: devise projection: %w", err)
	}
	return &DeViSEModel{a: a, b: b, proj: proj, workers: cfg.Model.Workers}, nil
}

// Predict implements Predictor: B embeds, P projects, frozen A scores.
func (m *DeViSEModel) Predict(v *feature.Vector) float64 {
	return m.a.PredictFromHidden(m.proj.Apply(m.b.Hidden(v)))
}

// PredictBatch implements Predictor, sharded across the model's workers.
func (m *DeViSEModel) PredictBatch(vs []*feature.Vector) []float64 {
	return predictAll(mapreduce.Config{Workers: m.workers}, vs, m.Predict)
}

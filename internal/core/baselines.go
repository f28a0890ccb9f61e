package core

import (
	"context"
	"fmt"

	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// SchemaFor composes an end-model schema from organizational service sets,
// optionally including the image- and text-specific feature sets. Only
// servable features are included.
func (p *Pipeline) SchemaFor(sets []string, includeImage, includeText bool) *feature.Schema {
	all := append([]string{}, sets...)
	if includeImage {
		all = append(all, resource.ImageSet)
	}
	if includeText {
		all = append(all, resource.TextSet)
	}
	return p.lib.Schema().Sets(all...).Servable()
}

// EmbeddingOnlySchema returns the schema holding only the pre-trained image
// embedding — the paper's reporting baseline ("a fully supervised image
// model trained with only pre-trained image embedding features", §6.3).
func (p *Pipeline) EmbeddingOnlySchema() *feature.Schema {
	return p.lib.Schema().Project(func(d feature.Def) bool {
		return d.Name == "img_embedding"
	})
}

// TrainSupervised trains a fully supervised early-fusion model on labeled
// points over the given schema — the baseline and hand-label comparisons of
// §6.4.
func (p *Pipeline) TrainSupervised(ctx context.Context, pts []*synth.Point, schema *feature.Schema, mcfg model.Config) (fusion.Predictor, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: no supervised training points")
	}
	ctx, span := trace.Start(ctx, "train")
	defer span.End()
	span.SetStr("fusion", "early")
	span.SetStr("mode", "supervised")
	vecs, err := p.Featurize(ctx, pts)
	if err != nil {
		return nil, fmt.Errorf("core: featurize supervised corpus: %w", err)
	}
	corpus := fusion.Corpus{Name: "supervised", Vectors: vecs, Targets: fusion.HardTargets(synth.Labels(pts))}
	return fusion.TrainEarly(ctx, []fusion.Corpus{corpus}, fusion.Config{
		Schema:   schema,
		Model:    p.modelConfig(mcfg),
		MaxVocab: p.opts.MaxVocab,
	})
}

// EvaluateAUPRC featurizes the test points and returns the predictor's
// AUPRC against their labels.
func (p *Pipeline) EvaluateAUPRC(ctx context.Context, predictor fusion.Predictor, test []*synth.Point) (float64, error) {
	ctx, span := trace.Start(ctx, "eval")
	defer span.End()
	span.SetInt("points", int64(len(test)))
	vecs, err := p.Featurize(ctx, test)
	if err != nil {
		return 0, fmt.Errorf("core: featurize test: %w", err)
	}
	auprc := metrics.AUPRC(synth.Labels(test), predictor.PredictBatch(vecs))
	span.SetFloat("auprc", auprc)
	return auprc, nil
}

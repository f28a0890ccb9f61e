package core

import (
	"context"
	"os"
	"reflect"
	"sync"
	"testing"

	"crossmodal/internal/labelprop"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// testEnv caches one world/library/dataset across tests (building them is
// the expensive part).
var (
	envOnce sync.Once
	envLib  *resource.Library
	envDS   *synth.Dataset
)

func testEnv(t *testing.T) (*resource.Library, *synth.Dataset) {
	t.Helper()
	envOnce.Do(func() {
		w := synth.MustWorld(synth.DefaultConfig())
		lib, err := resource.StandardLibrary(w)
		if err != nil {
			t.Fatal(err)
		}
		task, err := synth.TaskByName("CT1")
		if err != nil {
			t.Fatal(err)
		}
		size := 1
		if full := os.Getenv("CROSSMODAL_FULL"); full != "" {
			size = 4
		}
		ds, err := synth.BuildDataset(w, task, synth.DatasetConfig{
			Seed:              21,
			NumText:           5000 * size,
			NumUnlabeledImage: 2500 * size,
			NumHandLabelPool:  2500 * size,
			NumTest:           2000 * size,
		})
		if err != nil {
			t.Fatal(err)
		}
		envLib, envDS = lib, ds
	})
	if envLib == nil {
		t.Fatal("environment setup failed")
	}
	return envLib, envDS
}

func smallOptions() Options {
	o := DefaultOptions()
	o.MaxGraphSeeds = 1200
	o.GraphDevNodes = 500
	o.Graph.MaxCandidates = 120
	o.Model = model.Config{Epochs: 5, LearningRate: 0.02, Seed: 5}
	return o
}

func runPipeline(t *testing.T, opts Options) (*Pipeline, *Result) {
	t.Helper()
	lib, ds := testEnv(t)
	p, err := NewPipeline(lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, ds := testEnv(t)
	p, res := runPipeline(t, smallOptions())

	if res.Curation.Report.LFCount == 0 {
		t.Fatal("pipeline generated no LFs")
	}
	if res.Curation.Report.WSCoverage == 0 {
		t.Fatal("weak supervision covered nothing")
	}
	baseRate := metrics.BaseRate(synth.Labels(ds.UnlabeledImage))
	if res.Curation.Report.WSPrecision < 2*baseRate {
		t.Errorf("WS precision %.3f below 2x base rate %.3f", res.Curation.Report.WSPrecision, baseRate)
	}
	auprc, err := p.EvaluateAUPRC(context.Background(), res.Predictor, ds.TestImage)
	if err != nil {
		t.Fatal(err)
	}
	base := metrics.BaseRate(synth.Labels(ds.TestImage))
	if auprc < 3*base {
		t.Errorf("cross-modal AUPRC %.3f should clearly beat base rate %.3f", auprc, base)
	}
}

func TestPipelineLabelPropImprovesRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	without := smallOptions()
	without.UseLabelProp = false
	_, resNo := runPipeline(t, without)
	_, resYes := runPipeline(t, smallOptions())
	if resYes.Curation.Report.WSRecall < resNo.Curation.Report.WSRecall {
		t.Errorf("label propagation reduced WS recall: %.4f -> %.4f",
			resNo.Curation.Report.WSRecall, resYes.Curation.Report.WSRecall)
	}
	if resYes.Curation.Report.LFCount != resNo.Curation.Report.LFCount+1 {
		t.Errorf("labelprop LF not appended: %d vs %d", resYes.Curation.Report.LFCount, resNo.Curation.Report.LFCount)
	}
}

func TestPipelineMajorityVoteFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	opts := smallOptions()
	opts.UseGenerative = false
	_, res := runPipeline(t, opts)
	if res.Curation.Report.LabelModel != nil {
		t.Error("majority-vote run should not fit a generative model")
	}
	if res.Curation.Report.WSCoverage == 0 {
		t.Error("majority vote produced no coverage")
	}
}

func TestPipelineCrossModalBeatsTextOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	_, ds := testEnv(t)

	p, res := runPipeline(t, smallOptions())
	textOnly := p.DefaultTrainSpec()
	textOnly.UseImage = false
	predText, err := p.Train(ctx, res.Curation, textOnly)
	if err != nil {
		t.Fatal(err)
	}
	aucText, err := p.EvaluateAUPRC(ctx, predText, ds.TestImage)
	if err != nil {
		t.Fatal(err)
	}
	aucBoth, err := p.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage)
	if err != nil {
		t.Fatal(err)
	}
	// Paper finding 3/4 (§6.6): joint training beats text-only inference
	// on the new modality.
	if aucBoth <= aucText {
		t.Errorf("cross-modal AUPRC %.3f should beat text-only %.3f", aucBoth, aucText)
	}
}

func TestPipelineOptionValidation(t *testing.T) {
	lib, _ := testEnv(t)
	bad := []Options{
		{Fusion: "bogus"},
		{LFSource: "bogus"},
	}
	for i, o := range bad {
		if _, err := NewPipeline(lib, o); err == nil {
			t.Errorf("options %d should be rejected", i)
		}
	}
	if _, err := NewPipeline(nil, DefaultOptions()); err == nil {
		t.Error("nil library should be rejected")
	}
}

// TestZeroOptionsGraphIsDefaultGraph: a zero Options builds the blocked
// graph DefaultOptions builds, field for field — never an unblocked one
// (labelprop.NewBuilder refuses empty BlockFeatures) — while a field the
// caller set stays set.
func TestZeroOptionsGraphIsDefaultGraph(t *testing.T) {
	lib, _ := testEnv(t)
	p, err := NewPipeline(lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Options().Graph, DefaultOptions().Graph; !reflect.DeepEqual(got, want) {
		t.Fatalf("zero Options graph %+v, DefaultOptions graph %+v", got, want)
	}
	p, err = NewPipeline(lib, Options{Graph: labelprop.GraphConfig{MaxCandidates: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if g := p.Options().Graph; g.MaxCandidates != 7 || g.K != DefaultOptions().Graph.K || len(g.BlockFeatures) == 0 {
		t.Fatalf("partly set graph resolved to %+v", g)
	}
}

func TestEndSchemaRespectsServability(t *testing.T) {
	lib, _ := testEnv(t)
	p, err := NewPipeline(lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	schema := p.EndSchema()
	if _, ok := schema.Index("user_reports"); ok {
		t.Error("nonservable feature leaked into the end-model schema")
	}
	if _, ok := schema.Index("img_embedding"); !ok {
		t.Error("modality features missing from default end schema")
	}
}

func TestEmbeddingOnlySchema(t *testing.T) {
	lib, _ := testEnv(t)
	p, _ := NewPipeline(lib, DefaultOptions())
	s := p.EmbeddingOnlySchema()
	if s.Len() != 1 {
		t.Fatalf("embedding schema has %d features, want 1", s.Len())
	}
	if _, ok := s.Index("img_embedding"); !ok {
		t.Error("embedding schema missing img_embedding")
	}
}

func TestTrainSpecVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, res := runPipeline(t, smallOptions())
	lib, ds := testEnv(t)
	p, err := NewPipeline(lib, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	testVecs, err := p.Featurize(ctx, ds.TestImage)
	if err != nil {
		t.Fatal(err)
	}
	labels := synth.Labels(ds.TestImage)

	// Schema override: an embedding-only model must ignore everything else.
	spec := p.DefaultTrainSpec()
	spec.Schema = p.EmbeddingOnlySchema()
	embOnly, err := p.Train(context.Background(), res.Curation, spec)
	if err != nil {
		t.Fatal(err)
	}
	if auc := metrics.AUPRC(labels, embOnly.PredictBatch(testVecs)); auc <= 0 {
		t.Errorf("embedding-only AUPRC = %v", auc)
	}

	// No modality is an error.
	bad := p.DefaultTrainSpec()
	bad.UseText, bad.UseImage = false, false
	if _, err := p.Train(context.Background(), res.Curation, bad); err == nil {
		t.Error("expected error for no-modality spec")
	}

	// DeViSE without both modalities is an error.
	devise := p.DefaultTrainSpec()
	devise.Fusion = DeViSE
	devise.UseText = false
	if _, err := p.Train(context.Background(), res.Curation, devise); err == nil {
		t.Error("expected error for single-modality DeViSE")
	}
}

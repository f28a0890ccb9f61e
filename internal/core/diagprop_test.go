package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/metrics"
	"crossmodal/internal/synth"
)

// TestDiagLabelProp probes propagation score quality in isolation.
func TestDiagLabelProp(t *testing.T) {
	if testing.Short() || !testing.Verbose() {
		t.Skip("diagnostic probe; run with -v")
	}
	ctx := context.Background()
	lib, ds := testEnv(t)
	opts := smallOptions()
	p, err := NewPipeline(lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	textVecs, _ := p.Featurize(ctx, ds.LabeledText)
	imageVecs, _ := p.Featurize(ctx, ds.UnlabeledImage)
	textLabels := synth.Labels(ds.LabeledText)
	imgLabels := synth.Labels(ds.UnlabeledImage)

	gSchema := p.graphSchema()
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(len(textVecs))
	nSeeds, nDev := opts.MaxGraphSeeds, opts.GraphDevNodes
	seedIdx, devIdx := perm[:nSeeds], perm[nSeeds:nSeeds+nDev]

	var nodes []*feature.Vector
	seeds := map[int]float64{}
	seedLabels := make([]int8, nSeeds)
	for si, ti := range seedIdx {
		if textLabels[ti] > 0 {
			seeds[len(nodes)] = 1
		} else {
			seeds[len(nodes)] = 0
		}
		seedLabels[si] = textLabels[ti]
		nodes = append(nodes, textVecs[ti].Reproject(gSchema))
	}
	devStart := len(nodes)
	for _, ti := range devIdx {
		nodes = append(nodes, textVecs[ti].Reproject(gSchema))
	}
	imageStart := len(nodes)
	for _, v := range imageVecs {
		nodes = append(nodes, v.Reproject(gSchema))
	}
	scales := feature.FitScales(gSchema, nodes)
	weights, err := labelprop.FitFeatureWeights(nodes[:nSeeds], seedLabels, scales, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("fitted weights: %v\n", weights)

	for _, variant := range []struct {
		name string
		w    feature.Weights
		k    int
		cand int
	}{
		{"uniform k10", nil, 10, 120},
		{"weighted k10", weights, 10, 120},
		{"weighted k15 cand300", weights, 15, 300},
	} {
		gcfg := opts.Graph
		gcfg.K, gcfg.MaxCandidates = variant.k, variant.cand
		gcfg.Weights = variant.w
		gcfg.Seed = 7
		g, err := labelprop.BuildGraph(ctx, gcfg, nodes, scales)
		if err != nil {
			t.Fatal(err)
		}
		res, err := labelprop.Propagate(ctx, g, seeds, labelprop.PropConfig{Prior: 0.04})
		if err != nil {
			t.Fatal(err)
		}
		devLabels := make([]int8, nDev)
		for i, ti := range devIdx {
			devLabels[i] = textLabels[ti]
		}
		devAUC := metrics.AUPRC(devLabels, res.Scores[devStart:imageStart])
		imgAUC := metrics.AUPRC(imgLabels, res.Scores[imageStart:])
		fmt.Printf("%-22s edges=%d devAUPRC=%.3f (base %.3f) imgAUPRC=%.3f (base %.3f)\n",
			variant.name, g.NumEdges(), devAUC, metrics.BaseRate(devLabels), imgAUC, metrics.BaseRate(imgLabels))
	}
}

// Quickstart: run the cross-modal adaptation pipeline end to end on one
// task and evaluate it — the minimal use of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"crossmodal"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// The synthetic world stands in for an organization's data; the
	// standard library stands in for its accumulated services (topic
	// models, aggregate statistics, rules).
	world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
	lib, err := crossmodal.StandardLibrary(world)
	if err != nil {
		log.Fatal(err)
	}

	// CT1 is a topic/object classification task with labeled text data
	// and a new, unlabeled image modality.
	task, err := crossmodal.TaskByName("CT1")
	if err != nil {
		log.Fatal(err)
	}
	cfg := crossmodal.DefaultDatasetConfig()
	cfg.NumText, cfg.NumUnlabeledImage, cfg.NumHandLabelPool, cfg.NumTest = 6000, 2500, 500, 2000
	ds, err := crossmodal.BuildDataset(world, task, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpora: %d labeled text, %d unlabeled image, %d test\n",
		len(ds.LabeledText), len(ds.UnlabeledImage), len(ds.TestImage))

	// One call runs all three pipeline stages: common-feature generation,
	// weak-supervision curation, and cross-modal model training.
	pipe, err := crossmodal.NewPipeline(lib, crossmodal.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run(ctx, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weak supervision: %d LFs, %.0f%% coverage, label F1 %.3f\n",
		res.Curation.Report.LFCount, 100*res.Curation.Report.WSCoverage, res.Curation.Report.WSF1)

	auprc, err := pipe.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage)
	if err != nil {
		log.Fatal(err)
	}
	base := crossmodal.PositiveRate(ds.TestImage)
	fmt.Printf("cross-modal model AUPRC on the new modality: %.3f (random ≈ %.3f)\n", auprc, base)
}

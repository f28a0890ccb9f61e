// Lifecycle: the full deployment story around the cross-modal bootstrap.
//
//  1. Bootstrap an image model with zero image labels (the pipeline).
//
//  2. Grow it with a small human-review budget via active learning (§6.4:
//     "rapid initial model deployment that can be augmented via techniques
//     for active learning or self-training").
//
//  3. Decide between the bootstrap and the grown model the production way
//     (§7.4): deploy both in parallel and compare them on live traffic with
//     a budgeted mix of random and importance-sampled human review.
//
//     go run ./examples/lifecycle
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

	world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
	lib, err := crossmodal.StandardLibrary(world)
	if err != nil {
		log.Fatal(err)
	}
	task, err := crossmodal.TaskByName("CT1")
	if err != nil {
		log.Fatal(err)
	}
	cfg := crossmodal.DefaultDatasetConfig()
	cfg.NumText, cfg.NumUnlabeledImage, cfg.NumHandLabelPool, cfg.NumTest = 8000, 3000, 2000, 3000
	ds, err := crossmodal.BuildDataset(world, task, cfg)
	if err != nil {
		log.Fatal(err)
	}
	oracle := func(p *crossmodal.Point) int8 { return p.Label } // the human reviewer

	// --- 1. Bootstrap ---
	pipe, err := crossmodal.NewPipeline(lib, crossmodal.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run(ctx, ds)
	if err != nil {
		log.Fatal(err)
	}
	bootAUPRC, err := pipe.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. bootstrap (no image labels): test AUPRC %.3f\n", bootAUPRC)

	// --- 2. Active learning on a small review budget ---
	activeRes, err := crossmodal.ActiveLearn(ctx, pipe, res.Curation, ds.HandLabelPool, ds.TestImage, oracle,
		crossmodal.ActiveConfig{Strategy: crossmodal.ImportanceSampling, BatchSize: 150, Rounds: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2. active learning (importance-sampled review):")
	for i, round := range activeRes.Rounds {
		fmt.Printf("   round %d: %4d reviewed, %3d violations surfaced, test AUPRC %.3f\n",
			i+1, round.Reviewed, round.PositivesFound, round.TestAUPRC)
	}

	// --- 3. Parallel deployment + monitored comparison ---
	trafficVecs, err := pipe.Featurize(ctx, ds.TestImage)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := crossmodal.CompareModels("bootstrap", res.Predictor, "grown", activeRes.Predictor,
		ds.TestImage, trafficVecs, oracle,
		crossmodal.MonitorConfig{Budget: 300, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. monitored comparison on live traffic (%d reviews spent):\n", comp.Reviewed)
	fmt.Printf("   disagreement on %.1f%% of traffic; estimated positive rate %.2f%%\n",
		100*comp.Disagreement, 100*comp.EstimatedPositiveRate)
	for _, m := range []crossmodal.Comparison{*comp} {
		fmt.Printf("   %-10s flags %.1f%% of traffic, reviewed precision %.2f\n",
			m.A.Name, 100*m.A.FlagRate, m.A.Precision)
		fmt.Printf("   %-10s flags %.1f%% of traffic, reviewed precision %.2f\n",
			m.B.Name, 100*m.B.FlagRate, m.B.Precision)
	}
	if winner := comp.Winner(0.02); winner != "" {
		fmt.Printf("   → promote %q\n", winner)
	} else {
		fmt.Println("   → too close to call; keep both deployed and keep sampling")
	}
}

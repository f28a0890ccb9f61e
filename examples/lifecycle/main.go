// Lifecycle: the full deployment story around the cross-modal bootstrap.
//
//  1. Bootstrap an image model with zero image labels (the pipeline).
//
//  2. Train the alternative §7.4 weighs it against: a fully supervised
//     model on the hand-labeled image pool.
//
//  3. Decide between the two the production way (§7.4): deploy both in
//     parallel and compare them on live traffic with a budgeted mix of
//     random and importance-sampled human review.
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

	// --- 2. Fully supervised alternative ---
	supervised, err := pipe.TrainSupervised(ctx, ds.HandLabelPool, pipe.EndSchema(), pipe.DefaultTrainSpec().Model)
	if err != nil {
		log.Fatal(err)
	}
	supAUPRC, err := pipe.EvaluateAUPRC(ctx, supervised, ds.TestImage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. supervised (%d hand-labeled images): test AUPRC %.3f\n", len(ds.HandLabelPool), supAUPRC)

	// --- 3. Parallel deployment + monitored comparison ---
	trafficVecs, err := pipe.Featurize(ctx, ds.TestImage)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := crossmodal.CompareModels("bootstrap", res.Predictor, "supervised", supervised,
		ds.TestImage, trafficVecs, oracle,
		crossmodal.MonitorConfig{Budget: 300, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. monitored comparison on live traffic (%d reviews spent):\n", comp.Reviewed)
	fmt.Printf("   disagreement on %.1f%% of traffic; estimated positive rate %.2f%%\n",
		100*comp.Disagreement, 100*comp.EstimatedPositiveRate)
	fmt.Printf("   %-10s flags %.1f%% of traffic, reviewed precision %.2f\n",
		comp.A.Name, 100*comp.A.FlagRate, comp.A.Precision)
	fmt.Printf("   %-10s flags %.1f%% of traffic, reviewed precision %.2f\n",
		comp.B.Name, 100*comp.B.FlagRate, comp.B.Precision)
	if winner := comp.Winner(0.02); winner != "" {
		fmt.Printf("   → promote %q\n", winner)
	} else {
		fmt.Println("   → too close to call; keep both deployed and keep sampling")
	}
}

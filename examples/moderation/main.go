// Moderation: the paper's motivating scenario (§1). A content-moderation
// team has a mature text classifier for policy violations; the application
// launches image posts, and the team must moderate them *before* any image
// labels exist. The example bootstraps an image model from organizational
// resources alone, then inspects the posts it would flag for human review.
//
//	go run ./examples/moderation
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

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
	// CT4 is the rarest-positive task (0.9% positive) — think "illegal
	// product" moderation, where sampling randomly for labels is hopeless.
	task, err := crossmodal.TaskByName("CT4")
	if err != nil {
		log.Fatal(err)
	}
	cfg := crossmodal.DefaultDatasetConfig()
	cfg.NumText, cfg.NumUnlabeledImage, cfg.NumHandLabelPool, cfg.NumTest = 12000, 5000, 500, 4000
	ds, err := crossmodal.BuildDataset(world, task, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moderating %q: %d labeled text posts, %d brand-new image posts\n",
		task.Name, len(ds.LabeledText), len(ds.UnlabeledImage))

	pipe, err := crossmodal.NewPipeline(lib, crossmodal.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run(ctx, ds)
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Curation.Report
	fmt.Printf("\nbootstrap without a single image label:\n")
	fmt.Printf("  %s\n", rep.Mining)
	fmt.Printf("  label propagation recovered borderline examples in %d iterations\n", rep.PropIters)
	fmt.Printf("  weak labels vs (hidden) truth: precision %.2f, recall %.2f\n",
		rep.WSPrecision, rep.WSRecall)

	// Rank the live image posts by violation probability — the review
	// queue a human moderation team would work through.
	vecs, err := pipe.Featurize(ctx, ds.TestImage)
	if err != nil {
		log.Fatal(err)
	}
	scores := res.Predictor.PredictBatch(vecs)
	type flagged struct {
		idx   int
		score float64
	}
	queue := make([]flagged, len(scores))
	for i, s := range scores {
		queue[i] = flagged{i, s}
	}
	sort.Slice(queue, func(a, b int) bool { return queue[a].score > queue[b].score })

	const reviewBudget = 40
	var caught int
	fmt.Printf("\ntop of the review queue (budget %d of %d posts):\n", reviewBudget, len(queue))
	for rank, f := range queue[:reviewBudget] {
		post := ds.TestImage[f.idx]
		verdict := "benign"
		if post.Label > 0 {
			verdict = "VIOLATION"
			caught++
		}
		if rank < 8 {
			v := vecs[f.idx]
			fmt.Printf("  #%2d p=%.2f %-9s topic=%s objects=%s reports=%.1f\n",
				rank+1, f.score, verdict,
				strings.Join(v.Get("topic").Categories, ","),
				strings.Join(v.Get("objects").Categories, ","),
				v.Get("user_reports").Num)
		}
	}
	totalPos := 0
	for _, p := range ds.TestImage {
		if p.Label > 0 {
			totalPos++
		}
	}
	randomHits := float64(reviewBudget) * float64(totalPos) / float64(len(queue))
	fmt.Printf("\nreviewing %d posts catches %d of %d violations (random sampling would catch ≈%.1f)\n",
		reviewBudget, caught, totalPos, randomHits)
}

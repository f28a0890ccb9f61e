package crossmodal_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"crossmodal"
)

// The Example_* functions are the paper's scenarios run through the public
// API, each with the output `go test` checks:
//
//	go test -run Example -v .

// must stands in for error handling: an example prints no error path, and a
// panic fails it.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// setup builds what every scenario starts from. The synthetic world stands
// in for an organization's data, the standard library for its accumulated
// services (topic models, aggregate statistics, rules). The dataset holds
// the named task's labeled text, unlabeled image, hand-labeled image pool
// and test image corpora at the given sizes, and the pipeline has the
// default options.
func setup(taskName string, text, image, pool, test int) (*crossmodal.World, *crossmodal.Task, *crossmodal.Dataset, *crossmodal.Pipeline) {
	world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
	lib := must(crossmodal.StandardLibrary(world))
	task := must(crossmodal.TaskByName(taskName))
	cfg := crossmodal.DefaultDatasetConfig()
	cfg.NumText, cfg.NumUnlabeledImage, cfg.NumHandLabelPool, cfg.NumTest = text, image, pool, test
	ds := must(crossmodal.BuildDataset(world, task, cfg))
	return world, task, ds, must(crossmodal.NewPipeline(lib, crossmodal.DefaultOptions()))
}

// Example_quickstart runs the cross-modal adaptation pipeline end to end on
// one task and evaluates it: the minimal use of the public API. CT1 is a
// topic/object classification task with labeled text data and a new,
// unlabeled image modality.
func Example_quickstart() {
	ctx := context.Background()
	_, _, ds, pipe := setup("CT1", 6000, 2500, 500, 2000)
	fmt.Printf("corpora: %d labeled text, %d unlabeled image, %d test\n",
		len(ds.LabeledText), len(ds.UnlabeledImage), len(ds.TestImage))

	// One call runs all three pipeline stages: common-feature generation,
	// weak-supervision curation, and cross-modal model training.
	res := must(pipe.Run(ctx, ds))
	rep := res.Curation.Report
	fmt.Printf("weak supervision: %d LFs, %.0f%% coverage, label F1 %.3f\n",
		rep.LFCount, 100*rep.WSCoverage, rep.WSF1)

	auprc := must(pipe.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage))
	fmt.Printf("cross-modal model AUPRC on the new modality: %.3f (random ≈ %.3f)\n",
		auprc, crossmodal.PositiveRate(ds.TestImage))
	// Output:
	// corpora: 6000 labeled text, 2500 unlabeled image, 2000 test
	// weak supervision: 33 LFs, 79% coverage, label F1 0.155
	// cross-modal model AUPRC on the new modality: 0.227 (random ≈ 0.036)
}

// Example_moderation is the paper's motivating scenario (§1). A
// content-moderation team has a mature text classifier for policy
// violations; the application launches image posts, and the team must
// moderate them before any image labels exist. The example bootstraps an
// image model from organizational resources alone, then inspects the posts
// it would flag for human review. CT4 is the rarest-positive task (0.9%
// positive), say "illegal product", where sampling randomly for labels is
// hopeless.
func Example_moderation() {
	ctx := context.Background()
	_, task, ds, pipe := setup("CT4", 12000, 5000, 500, 4000)
	fmt.Printf("moderating %q: %d labeled text posts, %d brand-new image posts\n",
		task.Name, len(ds.LabeledText), len(ds.UnlabeledImage))

	res := must(pipe.Run(ctx, ds))
	rep := res.Curation.Report
	fmt.Printf("\nbootstrap without a single image label:\n")
	fmt.Printf("  %s\n", rep.Mining)
	fmt.Printf("  label propagation recovered borderline examples in %d iterations\n", rep.PropIters)
	fmt.Printf("  weak labels vs (hidden) truth: precision %.2f, recall %.2f\n",
		rep.WSPrecision, rep.WSRecall)

	// Rank the live image posts by violation probability: the review queue
	// a human moderation team would work through.
	vecs := must(pipe.Featurize(ctx, ds.TestImage))
	scores := res.Predictor.PredictBatch(vecs)
	queue := make([]int, len(scores))
	for i := range queue {
		queue[i] = i
	}
	sort.Slice(queue, func(a, b int) bool { return scores[queue[a]] > scores[queue[b]] })

	const reviewBudget = 40
	var caught int
	fmt.Printf("\ntop of the review queue (budget %d of %d posts):\n", reviewBudget, len(queue))
	for rank, i := range queue[:reviewBudget] {
		verdict := "benign"
		if ds.TestImage[i].Label > 0 {
			verdict = "VIOLATION"
			caught++
		}
		if rank < 8 {
			v := vecs[i]
			fmt.Printf("  #%2d p=%.2f %-9s topic=%s objects=%s reports=%.1f\n",
				rank+1, scores[i], verdict,
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
	// Output:
	// moderating "CT4": 12000 labeled text posts, 5000 brand-new image posts
	//
	// bootstrap without a single image label:
	//   mined 323 candidates over 92+/11908- dev points → 7 positive, 20 negative, 0 numeric LFs
	//   label propagation recovered borderline examples in 13 iterations
	//   weak labels vs (hidden) truth: precision 0.06, recall 0.26
	//
	// top of the review queue (budget 40 of 4000 posts):
	//   # 1 p=0.44 benign    topic=t9 objects=obj29,obj32 reports=10.8
	//   # 2 p=0.43 benign    topic= objects=obj29,obj34 reports=8.3
	//   # 3 p=0.39 benign    topic=t11 objects=obj13,obj18,obj33 reports=0.7
	//   # 4 p=0.37 benign    topic=t10 objects=obj7,obj32 reports=5.8
	//   # 5 p=0.36 benign    topic=t10 objects=obj33 reports=0.1
	//   # 6 p=0.32 benign    topic=t18 objects=obj29 reports=4.0
	//   # 7 p=0.32 benign    topic=t23 objects=obj29,obj35 reports=2.7
	//   # 8 p=0.30 benign    topic=t9 objects=obj29 reports=1.8
	//
	// reviewing 40 posts catches 6 of 29 violations (random sampling would catch ≈0.3)
}

// Example_lfmining drives the weak-supervision building blocks directly
// (paper §4.3 and §6.7.1). It mines labeling functions from the labeled
// text corpus by frequent itemset mining, has a simulated domain expert
// author rival LFs from a small sample, and compares both on the dev set and
// as label models.
func Example_lfmining() {
	ctx := context.Background()
	_, _, ds, pipe := setup("CT2", 10000, 3000, 200, 200)

	// Featurize the labeled text corpus into the common feature space: this
	// is both the mining corpus and the development set.
	devVecs := must(pipe.Featurize(ctx, ds.LabeledText))
	devLabels := crossmodal.Labels(ds.LabeledText)

	// Automatic LF generation: mine the full corpus (§4.3).
	mined, report, err := crossmodal.MineLFs(ctx, crossmodal.DefaultMiningConfig(), devVecs, devLabels)
	if err != nil {
		panic(err)
	}
	fmt.Printf("miner scanned all %d dev points: %s\n", len(devVecs), report)

	// Expert LF authorship: a small sample, by hand (§6.7.1).
	expert := crossmodal.DefaultExpert()
	rng := rand.New(rand.NewSource(7))
	var sample []*crossmodal.Vector
	var sampleLabels []int8
	for _, i := range expert.Sample(len(devVecs), rng) {
		sample, sampleLabels = append(sample, devVecs[i]), append(sampleLabels, devLabels[i])
	}
	authored := must(expert.Develop(sample, sampleLabels, rng))
	fmt.Printf("expert examined %d sampled points: %d LFs\n", len(sample), len(authored))

	for _, side := range []struct {
		name string
		lfs  []*crossmodal.LabelingFunction
	}{{"mined", mined}, {"expert", authored}} {
		matrix := must(crossmodal.ApplyLFs(ctx, side.lfs, devVecs))
		stats := crossmodal.EvaluateLFs(matrix, devLabels)
		sort.Slice(stats, func(a, b int) bool {
			return stats[a].Precision*stats[a].Recall > stats[b].Precision*stats[b].Recall
		})
		fmt.Printf("\nbest %s LFs on the dev set:\n", side.name)
		for _, s := range stats[:min(5, len(stats))] {
			fmt.Printf("  %-44s precision=%.2f recall=%.3f coverage=%.3f\n",
				s.Name, s.Precision, s.Recall, s.Coverage)
		}
		// Denoise the votes into probabilistic labels and measure the label
		// model's dev-set F1, the §6.7 comparison metric.
		lm := must(crossmodal.FitLabelModel(ctx, matrix, devLabels, crossmodal.LabelModelConfig{}))
		var tp, fp, fn int
		for i, p := range must(lm.Predict(matrix)) {
			pos := p >= 0.5
			switch {
			case pos && devLabels[i] > 0:
				tp++
			case pos:
				fp++
			case devLabels[i] > 0:
				fn++
			}
		}
		precision := float64(tp) / float64(max(tp+fp, 1))
		recall := float64(tp) / float64(max(tp+fn, 1))
		fmt.Printf("  label-model dev F1: %.3f (precision %.3f, recall %.3f)\n",
			2*precision*recall/max(precision+recall, 1e-12), precision, recall)
	}
	// Output:
	// miner scanned all 10000 dev points: mined 527 candidates over 983+/9017- dev points → 6 positive, 36 negative, 4 numeric LFs
	// expert examined 400 sampled points: 18 LFs
	//
	// best mined LFs on the dev set:
	//   text_toxicity≤1.29→-1                        precision=0.94 recall=0.981 coverage=0.938
	//   text_wordcount≥18.7→-1                       precision=0.92 recall=0.702 coverage=0.688
	//   kw_spam_rule=quiet→-1                        precision=0.95 recall=0.674 coverage=0.641
	//   text_toxicity≥1.29→+1                        precision=0.72 recall=0.458 coverage=0.062
	//   sentiment=negative→-1                        precision=0.95 recall=0.290 coverage=0.276
	//   label-model dev F1: 0.746 (precision 0.738, recall 0.755)
	//
	// best expert LFs on the dev set:
	//   topic_coarse=tc0→+1                          precision=0.35 recall=0.392 coverage=0.109
	//   topic=t11→-1                                 precision=0.97 recall=0.061 coverage=0.057
	//   topic=t5→-1                                  precision=0.97 recall=0.058 coverage=0.054
	//   topic=t22→-1                                 precision=0.94 recall=0.057 coverage=0.054
	//   topic=t18→-1                                 precision=0.96 recall=0.042 coverage=0.040
	//   label-model dev F1: 0.238 (precision 0.571, recall 0.151)
}

// Example_videoframes extends the adaptation one modality further (paper
// §3.1.1). A model bootstrapped for images is applied to video posts by
// splitting each video into representative image frames, featurizing the
// frames through the same organizational services, and merging the
// per-frame observations (categorical union, numeric mean): no
// video-specific training at all.
func Example_videoframes() {
	ctx := context.Background()
	world, task, ds, pipe := setup("CT1", 8000, 3000, 200, 200)
	res := must(pipe.Run(ctx, ds))
	fmt.Println("image model bootstrapped from text labels + organizational resources")

	for _, frames := range []int{1, 3, 6} {
		videos := crossmodal.SampleVideo(world, task, 3000, frames, 99)
		vecs := must(pipe.Featurize(ctx, videos))
		auprc := crossmodal.AUPRC(crossmodal.Labels(videos), res.Predictor.PredictBatch(vecs))
		fmt.Printf("video posts split into %d frame(s): AUPRC %.3f (random ≈ %.3f)\n",
			frames, auprc, crossmodal.PositiveRate(videos))
	}
	fmt.Println("\nsplitting into frames lets every image-capable service see the video;")
	fmt.Println("a few frames beat one (better recall), while many frames can add noise —")
	fmt.Println("all without a single video-labeled example (paper §3.1.1).")
	// Output:
	// image model bootstrapped from text labels + organizational resources
	// video posts split into 1 frame(s): AUPRC 0.165 (random ≈ 0.029)
	// video posts split into 3 frame(s): AUPRC 0.243 (random ≈ 0.029)
	// video posts split into 6 frame(s): AUPRC 0.271 (random ≈ 0.029)
	//
	// splitting into frames lets every image-capable service see the video;
	// a few frames beat one (better recall), while many frames can add noise —
	// all without a single video-labeled example (paper §3.1.1).
}

// Example_lifecycle tells the deployment story around the bootstrap: an
// image model bootstrapped with zero image labels, the fully supervised
// model on the hand-labeled image pool that §7.4 weighs it against, and the
// production way to decide between them (§7.4): deploy both in parallel and
// compare them on live traffic with a budgeted mix of random and
// importance-sampled human review.
func Example_lifecycle() {
	ctx := context.Background()
	_, _, ds, pipe := setup("CT1", 8000, 3000, 2000, 3000)
	oracle := func(p *crossmodal.Point) int8 { return p.Label } // the human reviewer

	res := must(pipe.Run(ctx, ds))
	bootAUPRC := must(pipe.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage))
	fmt.Printf("1. bootstrap (no image labels): test AUPRC %.3f\n", bootAUPRC)

	supervised := must(pipe.TrainSupervised(ctx, ds.HandLabelPool, pipe.EndSchema(), pipe.DefaultTrainSpec().Model))
	supAUPRC := must(pipe.EvaluateAUPRC(ctx, supervised, ds.TestImage))
	fmt.Printf("2. supervised (%d hand-labeled images): test AUPRC %.3f\n", len(ds.HandLabelPool), supAUPRC)

	trafficVecs := must(pipe.Featurize(ctx, ds.TestImage))
	comp := must(crossmodal.CompareModels("bootstrap", res.Predictor, "supervised", supervised,
		ds.TestImage, trafficVecs, oracle, crossmodal.MonitorConfig{Budget: 300, Seed: 9}))
	fmt.Printf("3. monitored comparison on live traffic (%d reviews spent):\n", comp.Reviewed)
	fmt.Printf("   disagreement on %.1f%% of traffic; estimated positive rate %.2f%%\n",
		100*comp.Disagreement, 100*comp.EstimatedPositiveRate)
	fmt.Printf("   %-10s flags %.1f%% of traffic, reviewed precision %.2f\n",
		comp.A.Name, 100*comp.A.FlagRate, comp.A.Precision)
	fmt.Printf("   %-10s flags %.1f%% of traffic, reviewed precision %.2f\n",
		comp.B.Name, 100*comp.B.FlagRate, comp.B.Precision)
	// Winner is "" while the two are too close to call: keep both deployed
	// and keep sampling.
	fmt.Printf("   → promote %q\n", comp.Winner(0.02))
	// Output:
	// 1. bootstrap (no image labels): test AUPRC 0.271
	// 2. supervised (2000 hand-labeled images): test AUPRC 0.172
	// 3. monitored comparison on live traffic (293 reviews spent):
	//    disagreement on 3.3% of traffic; estimated positive rate 1.79%
	//    bootstrap  flags 3.5% of traffic, reviewed precision 0.36
	//    supervised flags 0.5% of traffic, reviewed precision 0.25
	//    → promote "bootstrap"
}

// ExampleStandardTasks lists the evaluation's classification tasks.
func ExampleStandardTasks() {
	for _, task := range crossmodal.StandardTasks() {
		fmt.Printf("%s: %.1f%% positive\n", task.Name, 100*task.TargetPositiveRate)
	}
	// Output:
	// CT1: 4.1% positive
	// CT2: 9.3% positive
	// CT3: 3.2% positive
	// CT4: 0.9% positive
	// CT5: 6.9% positive
}

// ExampleStandardLibrary shows the organizational-resource feature space.
func ExampleStandardLibrary() {
	world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
	schema := must(crossmodal.StandardLibrary(world)).Schema()
	fmt.Printf("organizational services (sets A-D): %d features\n", schema.Sets("A", "B", "C", "D").Len())
	fmt.Printf("servable features overall: %d of %d\n", schema.Servable().Len(), schema.Len())
	// Output:
	// organizational services (sets A-D): 15 features
	// servable features overall: 20 of 21
}

// ExamplePositiveRate demonstrates dataset sampling and class imbalance.
func ExamplePositiveRate() {
	world := crossmodal.MustWorld(crossmodal.DefaultWorldConfig())
	task := must(crossmodal.TaskByName("CT4"))
	ds := must(crossmodal.BuildDataset(world, task, crossmodal.DatasetConfig{
		Seed: 7, NumText: 5000, NumUnlabeledImage: 100, NumHandLabelPool: 1, NumTest: 1,
	}))
	rate := crossmodal.PositiveRate(ds.LabeledText)
	fmt.Printf("CT4 is heavily imbalanced: %v\n", rate < 0.03)
	// Output:
	// CT4 is heavily imbalanced: true
}

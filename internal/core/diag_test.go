package core

import (
	"context"
	"fmt"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// TestDiagnostics prints stage-by-stage quality numbers; run with
// go test -run TestDiagnostics -v. Skipped in normal runs.
func TestDiagnostics(t *testing.T) {
	if testing.Short() || testing.Verbose() == false {
		t.Skip("diagnostic probe; run with -v")
	}
	ctx := context.Background()
	_, ds := testEnv(t)

	p, res := runPipeline(t, smallOptions())
	fmt.Printf("LFs=%d coverage=%.3f WS P/R/F1 = %.3f/%.3f/%.3f cuts=%+v propIters=%d\n",
		res.Report.LFCount, res.Report.WSCoverage,
		res.Report.WSPrecision, res.Report.WSRecall, res.Report.WSF1,
		res.Report.Cuts, res.Report.PropIters)
	fmt.Printf("mining: %s\n", res.Report.Mining)
	for _, s := range res.Report.DevStats {
		fmt.Printf("  LF %-40s p=%.3f r=%.4f cov=%.4f votes=%d\n", s.Name, s.Precision, s.Recall, s.Coverage, s.Votes)
	}
	if res.Report.LabelModel != nil {
		for j, name := range res.Report.LabelModel.Names {
			fmt.Printf("  acc %-40s %.3f\n", name, res.Report.LabelModel.Accuracy(j))
		}
	}

	// Image-side LF quality against hidden truth.
	imgVecs, _ := p.Featurize(ctx, ds.UnlabeledImage)
	lfSchema := p.lfSchema()
	inLF := func(vecs []*feature.Vector) []*feature.Vector {
		out, _ := scanAll(t, &memCorpus{vecs: vecs, labels: make([]int8, len(vecs))}, lfSchema)
		return out
	}
	imgLabels := synth.Labels(ds.UnlabeledImage)
	textVecs, _ := p.Featurize(ctx, ds.LabeledText)
	textLFs, _, _ := mining.Mine(ctx, mapreduce.Config{}, p.opts.Mining, inLF(textVecs), synth.Labels(ds.LabeledText))
	m2, _ := lf.Apply(ctx, mapreduce.Config{}, textLFs, inLF(imgVecs))
	fmt.Println("image-side quality of text-mined LFs:")
	for _, s := range lf.EvaluateAll(m2, imgLabels) {
		fmt.Printf("  LF %-40s p=%.3f r=%.4f cov=%.4f\n", s.Name, s.Precision, s.Recall, s.Coverage)
	}
	// Posterior histogram of the pipeline's probabilistic labels.
	var buckets [10]int
	for _, pr := range res.ProbLabels {
		b := int(pr * 10)
		if b > 9 {
			b = 9
		}
		buckets[b]++
	}
	fmt.Printf("posterior histogram: %v\n", buckets)

	base := metrics.BaseRate(synth.Labels(ds.TestImage))
	aucBoth, _ := p.EvaluateAUPRC(ctx, res.Predictor, ds.TestImage)

	textOnly := smallOptions()
	textOnly.UseImage = false
	pT, resT := runPipeline(t, textOnly)
	aucText, _ := pT.EvaluateAUPRC(ctx, resT.Predictor, ds.TestImage)

	imgOnly := smallOptions()
	imgOnly.UseText = false
	pI, resI := runPipeline(t, imgOnly)
	aucImg, _ := pI.EvaluateAUPRC(ctx, resI.Predictor, ds.TestImage)

	// Oracle: image model trained on TRUE labels of the unlabeled corpus.
	oraclePred, err := p.TrainSupervised(ctx, ds.UnlabeledImage, p.SchemaFor(resource.ABCD, true, false), model.Config{Epochs: 5, Seed: 5, LearningRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	aucOracle, _ := p.EvaluateAUPRC(ctx, oraclePred, ds.TestImage)

	embSchema := p.EmbeddingOnlySchema()
	embPred, err := p.TrainSupervised(ctx, ds.HandLabelPool, embSchema, model.Config{Epochs: 5, Seed: 5, LearningRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	aucEmb, _ := p.EvaluateAUPRC(ctx, embPred, ds.TestImage)

	fmt.Printf("base=%.3f emb-baseline=%.3f text=%.3f imageWS=%.3f both=%.3f oracleImage=%.3f\n",
		base, aucEmb, aucText, aucImg, aucBoth, aucOracle)
	fmt.Printf("relative: text=%.2f image=%.2f both=%.2f oracle=%.2f\n",
		aucText/aucEmb, aucImg/aucEmb, aucBoth/aucEmb, aucOracle/aucEmb)
}

package core

import (
	"context"
	"fmt"
	"sort"

	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/labelmodel"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// Pipeline is the cross-modal adaptation pipeline bound to an
// organizational-resource library.
type Pipeline struct {
	lib  *resource.Library
	opts Options
}

// NewPipeline builds a pipeline. Zero numeric, string and slice options fall
// back to their documented defaults; booleans are taken as given, so start
// from DefaultOptions to get the defaults they document.
func NewPipeline(lib *resource.Library, opts Options) (*Pipeline, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if lib == nil {
		return nil, fmt.Errorf("core: nil resource library")
	}
	return &Pipeline{lib: lib, opts: opts}, nil
}

// Options returns the pipeline's resolved options.
func (p *Pipeline) Options() Options { return p.opts }

// Featurize maps points into the library's common feature space.
func (p *Pipeline) Featurize(ctx context.Context, pts []*synth.Point) ([]*feature.Vector, error) {
	return p.featurizeInto(ctx, pts, nil)
}

// featurizeInto is Featurize refilling b unless it is nil (see
// resource.Library.FeaturizeInto).
func (p *Pipeline) featurizeInto(ctx context.Context, pts []*synth.Point, b *resource.Batch) ([]*feature.Vector, error) {
	ctx, span := trace.Start(ctx, "featurize")
	defer span.End()
	span.Add("points", int64(len(pts)))
	return p.lib.FeaturizeInto(ctx, mapreduce.Config{Workers: p.opts.Workers}, pts, b)
}

// EndSchema returns the feature schema the discriminative end model trains
// on: the servable features of the LF sets plus the modality-specific sets
// (the paper's T+… and I+… configurations).
func (p *Pipeline) EndSchema() *feature.Schema {
	return p.SchemaFor(p.opts.LFSets, true, true)
}

// lfSchema returns the feature space LFs may read: the LF sets, including
// nonservable features (LFs run offline, §4.1).
func (p *Pipeline) lfSchema() *feature.Schema {
	return p.lib.Schema().Sets(p.opts.LFSets...)
}

// graphSchema returns the feature space used for propagation-graph edges:
// the LF features plus the new modality's unstructured features (paper
// §4.4: "we use features specific to the new modality to construct edges,
// including unstructured features such as image embeddings").
func (p *Pipeline) graphSchema() *feature.Schema {
	sets := append(append([]string{}, p.opts.LFSets...), resource.ImageSet)
	return p.lib.Schema().Sets(sets...)
}

// Result is a completed pipeline run.
type Result struct {
	// Predictor is the trained end model over the common feature space.
	Predictor fusion.Predictor
	// Curation carries the weak-supervision outputs and featurized
	// corpora; reuse it with Train to fit further model variants without
	// repeating the curation stages.
	Curation *Curation
}

// Curation is the output of the feature-generation and training-data
// curation stages (Figure 3 A+B): featurized corpora plus probabilistic
// labels for the new modality. One curation supports training any number of
// end-model variants (different feature sets, modalities, or fusion
// architectures).
type Curation struct {
	Dataset    *synth.Dataset
	TextVecs   []*feature.Vector
	ImageVecs  []*feature.Vector
	TextLabels []int8
	// ProbLabels are the weak-supervision probabilistic labels for the
	// unlabeled new-modality corpus, aligned with Dataset.UnlabeledImage.
	ProbLabels []float64
	// Covered marks which unlabeled points received at least one LF vote
	// (only covered points join end-model training).
	Covered []bool
	// Report carries diagnostics of every stage.
	Report Report
}

// Report summarizes a pipeline run's curation stages.
type Report struct {
	Task string
	// Mining summarizes LF generation; LFCount the final LF count
	// (including the propagation LF when enabled).
	Mining  mining.Report
	LFCount int
	// LFExamined counts the labeled points the LF source read: the whole
	// corpus for the miner, the simulated expert's sample (§6.7.1).
	LFExamined int
	// DevStats holds each LF's precision/recall/coverage on the labeled
	// old-modality dev set.
	DevStats []lf.Stats
	// Cuts are the tuned propagation-score thresholds; PropIters the
	// propagation iterations (zero when label propagation is disabled).
	Cuts      labelprop.Cuts
	PropIters int
	// LabelModel is the fitted generative model (nil under majority vote).
	LabelModel *labelmodel.Model
	// WS* report the curated labels' quality against the hidden ground
	// truth of the unlabeled corpus — the paper's Table 3 metrics. These
	// are diagnostics: the pipeline itself never trains on this truth.
	WSPrecision, WSRecall, WSF1, WSCoverage float64
}

// Run executes the full pipeline on a dataset and returns the trained
// predictor plus diagnostics. The unlabeled corpus's hidden labels are used
// only to fill the Report's WS quality fields, never for training.
func (p *Pipeline) Run(ctx context.Context, ds *synth.Dataset) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "pipeline.run")
	defer span.End()
	cur, err := p.Curate(ctx, ds)
	if err != nil {
		return nil, err
	}
	predictor, err := p.Train(ctx, cur, p.DefaultTrainSpec())
	if err != nil {
		return nil, err
	}
	return &Result{Predictor: predictor, Curation: cur}, nil
}

// Curate runs feature generation and training-data curation (stages A and B)
// and returns the reusable curation: both corpora are featurized in memory
// and the curation stages run over them as memCorpus. When the image
// modality is disabled the weak-supervision stages are skipped entirely.
func (p *Pipeline) Curate(ctx context.Context, ds *synth.Dataset) (*Curation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, curSpan := trace.Start(ctx, "pipeline.curate")
	defer curSpan.End()

	textVecs, err := p.Featurize(ctx, ds.LabeledText)
	if err != nil {
		return nil, fmt.Errorf("core: featurize text: %w", err)
	}
	imageVecs, err := p.Featurize(ctx, ds.UnlabeledImage)
	if err != nil {
		return nil, fmt.Errorf("core: featurize image: %w", err)
	}
	textLabels, imageTruth := synth.Labels(ds.LabeledText), synth.Labels(ds.UnlabeledImage)

	r := &curateRun{
		p: p, task: ds.Task.Name,
		text:       &memCorpus{vecs: textVecs, labels: textLabels},
		image:      &memCorpus{vecs: imageVecs, labels: imageTruth},
		textLabels: textLabels, imageTruth: imageTruth,
	}
	probs, covered, report, err := r.curate(ctx)
	if err != nil {
		return nil, err
	}
	return &Curation{
		Dataset:    ds,
		TextVecs:   textVecs,
		ImageVecs:  imageVecs,
		TextLabels: textLabels,
		ProbLabels: probs,
		Covered:    covered,
		Report:     report,
	}, nil
}

// dedupeLFs greedily keeps LFs in descending dev-quality order, dropping
// any whose non-abstain votes agree with an already kept LF on >= 95% of
// their overlap (with overlap covering >= 60% of the smaller LF's votes).
// It compacts the kept columns of devMatrix in place and returns devMatrix
// itself: each row keeps its capacity, so the spare column Plan.Vote leaves
// for appendPropLF still fits.
func dedupeLFs(lfs []*lf.LF, devMatrix *lf.Matrix, devLabels []int8) ([]*lf.LF, *lf.Matrix) {
	stats := lf.EvaluateAll(devMatrix, devLabels)
	order := make([]int, len(lfs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa := stats[order[a]].Precision * stats[order[a]].Recall
		qb := stats[order[b]].Precision * stats[order[b]].Recall
		if qa != qb {
			return qa > qb
		}
		return lfs[order[a]].Name < lfs[order[b]].Name
	})
	// voted[j] lists the rows LF j votes on: each column is counted once, and
	// a pair is compared only over the candidate's own votes. The lists are
	// cut from one slab, sized by the vote counts stats already holds.
	total := 0
	for _, s := range stats {
		total += s.Votes
	}
	slab := make([]int32, total)
	voted := make([][]int32, len(lfs))
	for j, s := range stats {
		voted[j], slab = slab[:0:s.Votes], slab[s.Votes:]
	}
	for i, row := range devMatrix.Votes {
		for j, v := range row {
			if v != 0 {
				voted[j] = append(voted[j], int32(i))
			}
		}
	}
	var keptIdx []int
	for _, j := range order {
		dup := false
		for _, k := range keptIdx {
			var agree, overlap int
			for _, i := range voted[j] {
				if row := devMatrix.Votes[i]; row[k] != 0 {
					overlap++
					if row[j] == row[k] {
						agree++
					}
				}
			}
			smaller := min(len(voted[j]), len(voted[k]))
			if smaller > 0 && overlap >= smaller*3/5 && float64(agree) >= 0.95*float64(overlap) {
				dup = true
				break
			}
		}
		if !dup {
			keptIdx = append(keptIdx, j)
		}
	}
	sort.Ints(keptIdx)
	if len(keptIdx) == len(lfs) {
		return lfs, devMatrix
	}
	kept := make([]*lf.LF, len(keptIdx))
	names := make([]string, len(keptIdx))
	for c, j := range keptIdx {
		kept[c] = lfs[j]
		names[c] = lfs[j].Name
	}
	// keptIdx ascends, so row[c] = row[j] (c <= j) never overwrites a column
	// still to be read.
	for i, row := range devMatrix.Votes {
		for c, j := range keptIdx {
			row[c] = row[j]
		}
		devMatrix.Votes[i] = row[:len(keptIdx)]
	}
	devMatrix.Names = names
	return kept, devMatrix
}

// graphSplit deterministically splits the labeled corpus into propagation
// seed indices and held-out cut-tuning indices.
func (p *Pipeline) graphSplit(nText int) (seedIdx, devIdx []int, err error) {
	rng := xrand.New(p.opts.Seed ^ 0x9a6b)
	perm := rng.Perm(nText)
	nSeeds := min(p.opts.MaxGraphSeeds, len(perm))
	nDev := min(p.opts.GraphDevNodes, len(perm)-nSeeds)
	if nDev == 0 && len(perm) >= 8 {
		// Small corpus: split three quarters seeds, one quarter dev.
		nSeeds = len(perm) * 3 / 4
		nDev = len(perm) - nSeeds
	}
	if nSeeds == 0 || nDev == 0 {
		return nil, nil, fmt.Errorf("core: labeled corpus too small for propagation (%d points)", nText)
	}
	return perm[:nSeeds], perm[nSeeds : nSeeds+nDev], nil
}

// tunePropCuts turns held-out propagation scores into vote thresholds.
// clampScores are the unlabeled-corpus scores bounding the negative cut to
// the clearly negative tail (the paper's "large volumes of negative
// examples"): a blanket negative vote near the prior would crush borderline
// positives.
func (p *Pipeline) tunePropCuts(devScores []float64, devLabels []int8, base float64, clampScores []float64) (labelprop.Cuts, error) {
	posTarget := p.opts.PosCutLift * base
	if posTarget < 0.03 {
		posTarget = 0.03
	}
	if posTarget > 0.8 {
		posTarget = 0.8
	}
	// The negative cut must deplete positives below the base rate, not
	// merely match the (already high) negative prior.
	negTarget := 1 - base/3
	if negTarget < p.opts.NegCutPrecision {
		negTarget = p.opts.NegCutPrecision
	}
	cuts, err := labelprop.ChooseCuts(devScores, devLabels, posTarget, negTarget)
	if err != nil {
		return labelprop.Cuts{}, fmt.Errorf("core: choose cuts: %w", err)
	}
	sorted := append([]float64(nil), clampScores...)
	sort.Float64s(sorted)
	if q := sorted[len(sorted)/4]; cuts.Neg > q {
		cuts.Neg = q
	}
	return cuts, nil
}

// appendPropLF appends the propagation score LF to the image matrix and
// mirrors it onto the labeled dev matrix (scores of the held-out, unseeded
// text nodes) so the dev-anchored label model can estimate its reliability
// like any other LF. Every dev row gets an abstaining column first, then
// only the devIdx rows get their vote, read from devScores / devReached as
// given; dev rows outside the held-out sample abstain.
func appendPropLF(matrix, devMatrix *lf.Matrix, cuts labelprop.Cuts, imageScores []float64, imagePresent []bool, devIdx []int, devScores []float64, devReached []bool) error {
	scoreLF := &lf.ScoreLF{
		Name:    "labelprop",
		Source:  "labelprop",
		Scores:  imageScores,
		Present: imagePresent,
		PosCut:  cuts.Pos,
		NegCut:  cuts.Neg,
	}
	if err := matrix.AppendScoreLF(scoreLF); err != nil {
		return fmt.Errorf("core: append propagation LF: %w", err)
	}
	devVotes := &lf.ScoreLF{Scores: devScores, Present: devReached, PosCut: cuts.Pos, NegCut: cuts.Neg}
	col := devMatrix.NumLFs()
	for i, row := range devMatrix.Votes {
		devMatrix.Votes[i] = append(row, lf.Abstain)
	}
	devMatrix.Names = append(devMatrix.Names, scoreLF.Name)
	for i, ti := range devIdx {
		devMatrix.Votes[ti][col] = devVotes.VoteAt(i)
	}
	return nil
}

// denoise converts the vote matrix into probabilistic labels via the
// dev-anchored label model (or majority vote). Each LF's class-conditional
// reliability is estimated on the labeled old-modality dev matrix (§4.2),
// then applied to the new modality's votes.
func (p *Pipeline) denoise(ctx context.Context, matrix, devMatrix *lf.Matrix, textLabels []int8) ([]float64, []bool, *labelmodel.Model, error) {
	covered := labelmodel.Covered(matrix)
	if !p.opts.UseGenerative {
		return labelmodel.MajorityVote(matrix), covered, nil, nil
	}
	lmCfg := p.opts.LabelModel
	if lmCfg.ClassBalance <= 0 {
		lmCfg.ClassBalance = metrics.BaseRate(textLabels)
	}
	var lm *labelmodel.Model
	var err error
	if p.opts.UseEMLabelModel {
		lm, err = labelmodel.FitGenerative(ctx, matrix, lmCfg)
	} else {
		lm, err = labelmodel.FitSupervised(ctx, devMatrix, textLabels, lmCfg)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: fit label model: %w", err)
	}
	probs, err := lm.Predict(matrix)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: label model predict: %w", err)
	}
	return probs, covered, lm, nil
}

// TrainSpec selects one end-model variant to train from a curation. Its
// corpora are the curation's own: the labeled text and the covered,
// weakly labeled images, every example weighted alike.
type TrainSpec struct {
	// ModelSets are the organizational service sets available to the
	// model (servable features only), joined by the image- and
	// text-specific sets.
	ModelSets []string
	// UseText / UseImage select the training corpora.
	UseText, UseImage bool
	// Fusion selects the architecture.
	Fusion FusionKind
	// Model configures the network.
	Model model.Config
	// Schema, when non-nil, overrides the schema composed from ModelSets
	// (e.g. the embedding-only baseline schema).
	Schema *feature.Schema
}

// DefaultTrainSpec returns the spec implied by the pipeline options, over
// both modalities' corpora.
func (p *Pipeline) DefaultTrainSpec() TrainSpec {
	return TrainSpec{
		ModelSets: p.opts.LFSets,
		UseText:   true,
		UseImage:  true,
		Fusion:    p.opts.Fusion,
		Model:     p.opts.Model,
	}
}

// modelConfig defaults the model's Workers knob from the pipeline options
// when the caller left it unset, so one -workers flag steers every stage.
func (p *Pipeline) modelConfig(mcfg model.Config) model.Config {
	if mcfg.Workers == 0 {
		mcfg.Workers = p.opts.Workers
	}
	return mcfg
}

// Train fits one end-model variant (stage C, §5) from a curation.
func (p *Pipeline) Train(ctx context.Context, cur *Curation, spec TrainSpec) (fusion.Predictor, error) {
	if !spec.UseText && !spec.UseImage {
		return nil, fmt.Errorf("core: train spec enables no modality")
	}
	ctx, span := trace.Start(ctx, "train")
	defer span.End()
	span.SetStr("fusion", string(spec.Fusion))
	schema := spec.Schema
	if schema == nil {
		schema = p.SchemaFor(spec.ModelSets, true, true)
	}
	cfg := fusion.Config{Schema: schema, Model: p.modelConfig(spec.Model), MaxVocab: p.opts.MaxVocab}
	var corpora []fusion.Corpus
	var textCorpus, imageCorpus fusion.Corpus
	if spec.UseText {
		textCorpus = fusion.Corpus{Name: "text", Vectors: cur.TextVecs, Targets: fusion.HardTargets(cur.TextLabels)}
		corpora = append(corpora, textCorpus)
	}
	if spec.UseImage {
		var vecs []*feature.Vector
		var targets []float64
		for i, v := range cur.ImageVecs {
			if cur.Covered[i] {
				vecs = append(vecs, v)
				targets = append(targets, cur.ProbLabels[i])
			}
		}
		if len(vecs) == 0 {
			return nil, fmt.Errorf("core: weak supervision covered no image points")
		}
		imageCorpus = fusion.Corpus{Name: "image", Vectors: vecs, Targets: targets}
		corpora = append(corpora, imageCorpus)
	}
	switch spec.Fusion {
	case IntermediateFusion:
		return fusion.TrainIntermediate(ctx, corpora, cfg)
	case DeViSE:
		if !spec.UseText || !spec.UseImage {
			return nil, fmt.Errorf("core: DeViSE needs both modalities")
		}
		return fusion.TrainDeViSE(ctx, []fusion.Corpus{textCorpus}, imageCorpus, cfg)
	default:
		return fusion.TrainEarly(ctx, corpora, cfg)
	}
}

func coverageRate(covered []bool) float64 {
	if len(covered) == 0 {
		return 0
	}
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	return float64(n) / float64(len(covered))
}

// wsQuality measures the curated labels against the hidden ground truth of
// the unlabeled corpus (diagnostics only; paper Table 3 metrics). The
// decision cut is prior-relative — min(0.5, 5 × class balance) — because in
// heavily imbalanced tasks a well-calibrated posterior rarely crosses 0.5
// even for clear positives, yet a posterior several times the prior is a
// confident positive call.
func wsQuality(probs []float64, covered []bool, labels []int8, prior float64) (precision, recall, f1 float64) {
	cut := 0.5
	if rel := 5 * prior; rel < cut && rel > 0 {
		cut = rel
	}
	var c metrics.Confusion
	for i, label := range labels {
		if !covered[i] {
			// Uncovered points count as missed positives for recall.
			if label > 0 {
				c.FN++
			} else {
				c.TN++
			}
			continue
		}
		pred := int8(-1)
		if probs[i] >= cut {
			pred = 1
		}
		c.Add(label, pred)
	}
	return c.Precision(), c.Recall(), c.F1()
}

package core

import (
	"context"
	"errors"
	"fmt"

	"crossmodal/internal/feature"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// corpus is what the curation stages need from a featurized corpus: its row
// count, an in-order chunked scan as column views in the schema the stage
// works in, and random access by point ID. *disk.Store satisfies it as is;
// memCorpus backs it with slices. Every scan must yield the same rows in the
// same order, and the stages never depend on where chunks break.
type corpus interface {
	Rows() int
	ScanColumns(ctx context.Context, target *feature.Schema, fn func(seq int, labels []int8, parts []feature.Columns) error) error
	Find(ctx context.Context, ids []int) (map[int]*feature.Vector, error)
}

// memCorpus is the in-memory corpus: all rows as one chunk, seq 0 (no chunk
// when it is empty), read as column views over the vectors where they are.
// Row index is point ID.
type memCorpus struct {
	vecs   []*feature.Vector
	labels []int8
}

func (c *memCorpus) Rows() int { return len(c.vecs) }

func (c *memCorpus) ScanColumns(ctx context.Context, target *feature.Schema, fn func(seq int, labels []int8, parts []feature.Columns) error) error {
	if err := ctx.Err(); err != nil || len(c.vecs) == 0 {
		return err
	}
	return fn(0, c.labels, feature.VectorColumns(target, c.vecs))
}

func (c *memCorpus) Find(_ context.Context, ids []int) (map[int]*feature.Vector, error) {
	out := make(map[int]*feature.Vector, len(ids))
	for _, id := range ids {
		if id >= 0 && id < len(c.vecs) {
			out[id] = c.vecs[id]
		}
	}
	return out, nil
}

// findRows fetches the rows of c with the given point IDs, in ids order; a
// missing ID is an error.
func findRows(ctx context.Context, c corpus, ids []int) ([]*feature.Vector, error) {
	found, err := c.Find(ctx, ids)
	out := make([]*feature.Vector, len(ids))
	for i, id := range ids {
		if out[i] = found[id]; out[i] == nil && err == nil {
			err = fmt.Errorf("core: row %d missing from corpus", id)
		}
	}
	return out, err
}

// curateRun is the one curation stage sequence (Figure 3 B: mine LFs →
// apply → propagate → label model) over a labeled text corpus and an
// unlabeled image corpus. Curate runs it over memCorpus, CurateStreamed
// over disk stores; window and chunkHook are the stream-only inputs,
// zero-valued from Curate.
type curateRun struct {
	p           *Pipeline
	task        string
	text, image corpus
	textLabels  []int8
	// imageTruth is the unlabeled corpus's hidden ground truth, read only
	// for the Report's WS quality diagnostics.
	imageTruth []int8

	// window caps how many image rows join the propagation graph (<= 0: all).
	window    int
	chunkHook func(stage string, chunk int) error

	// Composed once per run.
	lfSchema, graphSchema *feature.Schema
}

// runChunkHook runs a StreamOptions.ChunkHook, if any, after a
// chunk-granular step.
func runChunkHook(hook func(stage string, chunk int) error, stage string, chunk int) error {
	if hook == nil {
		return nil
	}
	if err := hook(stage, chunk); err != nil {
		return fmt.Errorf("core: chunk hook at %s[%d]: %w", stage, chunk, err)
	}
	return nil
}

// curate runs the weak-supervision stages and returns the probabilistic
// labels, coverage and report for the image corpus.
func (r *curateRun) curate(ctx context.Context) ([]float64, []bool, Report, error) {
	p := r.p
	report := Report{Task: r.task}
	nImages := r.image.Rows()
	if r.text.Rows() == 0 || nImages == 0 {
		return nil, nil, report, fmt.Errorf("core: curation needs a non-empty labeled and unlabeled corpus (%d labeled, %d unlabeled points)", r.text.Rows(), nImages)
	}
	r.lfSchema, r.graphSchema = p.lfSchema(), p.graphSchema()
	if r.window <= 0 || r.window > nImages {
		r.window = nImages
	}

	lfs, err := r.buildLFs(ctx, &report)
	if err != nil {
		return nil, nil, report, err
	}

	applyCtx, applySpan := trace.Start(ctx, "lf.apply")
	devMatrix, err := r.apply(applyCtx, lfs, r.text, "lf-apply:text")
	if err != nil {
		applySpan.End()
		return nil, nil, report, fmt.Errorf("core: apply LFs to dev: %w", err)
	}
	// Drop LFs that near-duplicate a better LF on the dev set: distinct
	// services often observe the same latent attribute, and duplicated
	// votes break the generative model's independence assumption.
	mined := len(lfs)
	if !p.opts.DisableLFDedup {
		lfs, devMatrix = dedupeLFs(lfs, devMatrix, r.textLabels)
	}
	applySpan.Add("lfs_kept", int64(len(lfs)))
	applySpan.Add("lfs_rejected", int64(mined-len(lfs)))
	matrix, err := r.apply(applyCtx, lfs, r.image, "lf-apply:image")
	applySpan.End()
	if err != nil {
		return nil, nil, report, fmt.Errorf("core: apply LFs: %w", err)
	}
	report.DevStats = lf.EvaluateAll(devMatrix, r.textLabels)

	if p.opts.UseLabelProp {
		lpCtx, lpSpan := trace.Start(ctx, "labelprop")
		report.Cuts, report.PropIters, err = r.propagate(lpCtx, matrix, devMatrix)
		lpSpan.End()
		if err != nil {
			return nil, nil, report, err
		}
	}
	report.LFCount = matrix.NumLFs()

	lmCtx, lmSpan := trace.Start(ctx, "labelmodel")
	probs, covered, lm, err := p.denoise(lmCtx, matrix, devMatrix, r.textLabels)
	lmSpan.End()
	if err != nil {
		return nil, nil, report, err
	}
	report.LabelModel = lm
	report.WSCoverage = coverageRate(covered)
	report.WSPrecision, report.WSRecall, report.WSF1 = wsQuality(probs, covered, r.imageTruth, metrics.BaseRate(r.textLabels))
	return probs, covered, report, nil
}

// buildLFs generates labeling functions from the labeled text corpus per
// the configured source, recording its Mining and LFExamined in report.
func (r *curateRun) buildLFs(ctx context.Context, report *Report) ([]*lf.LF, error) {
	report.LFExamined = r.text.Rows()
	if r.p.opts.LFSource == ExpertLFs {
		// The simulated expert examines only its sample of the dev set: the
		// sampled rows are fetched by ID, in the order drawn, and seen
		// through the LF schema.
		expert := lf.DefaultExpert()
		rng := xrand.New(r.p.opts.Seed ^ 0xe4be27)
		ids := expert.Sample(r.text.Rows(), rng)
		report.LFExamined = len(ids)
		sample, err := findRows(ctx, r.text, ids)
		if err != nil {
			return nil, fmt.Errorf("core: expert LFs: %w", err)
		}
		labels := make([]int8, len(ids))
		for i, id := range ids {
			sample[i], labels[i] = sample[i].Reproject(r.lfSchema), r.textLabels[id]
		}
		lfs, err := expert.Develop(sample, labels, rng)
		if err != nil {
			return nil, fmt.Errorf("core: expert LFs: %w", err)
		}
		return lfs, nil
	}
	lfs, rep, err := mining.MineColumns(ctx, mapreduce.Config{Workers: r.p.opts.Workers}, r.p.opts.Mining, r.lfSchema,
		func(ctx context.Context, fn func([]int8, []feature.Columns) error) error {
			return r.text.ScanColumns(ctx, r.lfSchema, func(seq int, labels []int8, parts []feature.Columns) error {
				if err := fn(labels, parts); err != nil {
					return err
				}
				return runChunkHook(r.chunkHook, "mine", seq)
			})
		})
	if err != nil {
		return nil, fmt.Errorf("core: mine LFs: %w", err)
	}
	report.Mining = rep
	return lfs, nil
}

// apply votes the LFs on a corpus chunk by chunk, each chunk's vote rows
// appended to one matrix — identical to one lf.Apply over the whole corpus
// because votes are per-point. ctx carries the lf.apply span.
func (r *curateRun) apply(ctx context.Context, lfs []*lf.LF, c corpus, stage string) (*lf.Matrix, error) {
	plan := lf.Compile(lfs, r.lfSchema)
	matrix := &lf.Matrix{Names: plan.Names, Votes: make([][]int8, 0, c.Rows())}
	err := c.ScanColumns(ctx, r.lfSchema, func(seq int, labels []int8, parts []feature.Columns) error {
		var cast int
		matrix.Votes, cast = plan.Vote(mapreduce.Config{Workers: r.p.opts.Workers}, parts, len(labels), matrix.Votes)
		trace.Count(ctx, "rows", int64(len(labels)))
		trace.Count(ctx, "votes", int64(cast))
		trace.Count(ctx, "views", int64(len(parts)))
		return runChunkHook(r.chunkHook, stage, seq)
	})
	return matrix, err
}

// errWindowDone ends a graph window scan at the window's last chunk.
var errWindowDone = errors.New("core: graph window scanned")

// scanWindow replays the image rows inside the graph window in append order,
// as column views under the graph schema: the view holding the window's last
// row is capped at it, and no later chunk is read. fn must not keep the
// views.
func (r *curateRun) scanWindow(ctx context.Context, stage string, fn func([]feature.Columns) error) error {
	left := r.window
	err := r.image.ScanColumns(ctx, r.graphSchema, func(seq int, _ []int8, parts []feature.Columns) error {
		for k, c := range parts {
			if n := c.Rows(); n < left {
				left -= n
				continue
			}
			if c.Rows() > left {
				c = headColumns{c, left}
			}
			parts, left = append(parts[:k:k], c), 0
			break
		}
		if err := fn(parts); err != nil {
			return err
		}
		if err := runChunkHook(r.chunkHook, stage, seq); err != nil || left > 0 {
			return err
		}
		return errWindowDone
	})
	if errors.Is(err, errWindowDone) {
		return nil
	}
	return err
}

// headColumns is a view cut to its first rows rows.
type headColumns struct {
	feature.Columns
	rows int
}

func (c headColumns) Rows() int { return c.rows }

// fitGraphWeights learns per-feature edge weights from the seeded labeled
// nodes so discriminative features dominate the graph. A fit that cannot run
// (fewer than two positive seeds, say) is not fatal — the graph is built with
// uniform weights — but it is not silent either: the enclosing labelprop
// span carries graph_weights_fitted = 1 or 0.
func fitGraphWeights(ctx context.Context, seedNodes []*feature.Vector, seedLabels []int8, scales feature.Scales, seed int64) feature.Weights {
	weights, err := labelprop.FitFeatureWeights(seedNodes, seedLabels, scales, 20000, seed)
	if err != nil {
		trace.SetInt(ctx, "graph_weights_fitted", 0)
		return nil
	}
	trace.SetInt(ctx, "graph_weights_fitted", 1)
	return weights
}

// propagate runs label propagation from labeled text seeds through the
// common-feature graph to the image rows inside the graph window, tunes
// vote cuts on held-out text, and appends the resulting score LF to the
// image matrix. Seed and dev text nodes are fetched by ID (they are bounded
// by MaxGraphSeeds and GraphDevNodes), scales are fitted with the chunked
// accumulator, and the graph grows by one labelprop.Builder delta per image
// chunk. Node order is seeds, dev, images; by the Builder's delta property
// the graph — and so a cold propagation — does not depend on where the
// chunks break.
func (r *curateRun) propagate(ctx context.Context, matrix, devMatrix *lf.Matrix) (labelprop.Cuts, int, error) {
	p := r.p
	gSchema := r.graphSchema
	seedIdx, devIdx, err := p.graphSplit(r.text.Rows())
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}
	nSeeds, nDev := len(seedIdx), len(devIdx)

	textIdx := append(append(make([]int, 0, nSeeds+nDev), seedIdx...), devIdx...)
	textVecs, err := findRows(ctx, r.text, textIdx)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fetch graph seeds: %w", err)
	}
	textNodes := feature.VectorColumns(gSchema, textVecs)

	seeds := make(map[int]float64, nSeeds)
	seedLabels := make([]int8, nSeeds)
	var posSeeds float64
	for i, ti := range seedIdx {
		seedLabels[i] = r.textLabels[ti]
		seeds[i] = 0
		if seedLabels[i] > 0 {
			seeds[i] = 1
			posSeeds++
		}
	}
	prior := posSeeds / float64(nSeeds)

	// Scales over the full node list in node order: the chunked accumulator
	// is bit-identical to feature.FitScales over the assembled nodes.
	acc := feature.NewScalesAccum(gSchema)
	for _, stage := range []string{"scales:means", "scales:devs"} {
		if stage == "scales:devs" {
			acc.FinishMeans()
		}
		acc.AddColumns(textNodes)
		if err := r.scanWindow(ctx, stage, func(parts []feature.Columns) error {
			acc.AddColumns(parts)
			return nil
		}); err != nil {
			return labelprop.Cuts{}, 0, fmt.Errorf("core: fit scales: %w", err)
		}
	}
	scales := acc.Scales()

	gcfg := p.opts.Graph
	gcfg.Seed = p.opts.Seed ^ 0x6a7f
	gcfg.Workers = p.opts.Workers
	if gcfg.Weights == nil && !p.opts.UniformGraphWeights {
		seedNodes := make([]*feature.Vector, nSeeds)
		for i, v := range textVecs[:nSeeds] {
			seedNodes[i] = v.Reproject(gSchema)
		}
		gcfg.Weights = fitGraphWeights(ctx, seedNodes, seedLabels, scales, p.opts.Seed^0x77)
	}
	b, err := labelprop.NewBuilder(gSchema, gcfg, scales)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}

	// The text nodes ride in the first image chunk's delta, so a one-chunk
	// corpus is one delta over the whole node list.
	pending := textNodes
	err = r.scanWindow(ctx, "graph", func(parts []feature.Columns) error {
		if pending != nil {
			parts, pending = append(pending, parts...), nil
		}
		return b.ApplyColumns(ctx, parts)
	})
	if err == nil {
		err = b.Flush(ctx)
	}
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}
	pcfg := p.opts.Prop
	pcfg.Prior = prior
	res, err := labelprop.Propagate(ctx, b.Graph(), seeds, pcfg)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: propagate: %w", err)
	}

	imageStart := nSeeds + nDev
	devScores := res.Scores[nSeeds:imageStart]
	devLabels := make([]int8, nDev)
	for i, ti := range devIdx {
		devLabels[i] = r.textLabels[ti]
	}
	cuts, err := p.tunePropCuts(devScores, devLabels, prior, res.Scores[imageStart:])
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}

	// Rows past the graph window abstain (zero-valued Present).
	nImages := r.image.Rows()
	imageScores := make([]float64, nImages)
	imagePresent := make([]bool, nImages)
	copy(imageScores, res.Scores[imageStart:])
	copy(imagePresent, res.Reached[imageStart:])
	if err := appendPropLF(matrix, devMatrix, cuts, imageScores, imagePresent,
		devIdx, devScores, res.Reached[nSeeds:imageStart]); err != nil {
		return labelprop.Cuts{}, 0, err
	}
	return cuts, res.Iters, nil
}

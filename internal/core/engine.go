package core

import (
	"context"
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
// count, an in-order chunked scan in the schema the stage works in — as
// column views for the LF stages (mining, LF apply), decoded into vectors of
// the first n rows for the graph stages, optionally into a buffer the caller
// keeps across scans — and random access by point ID. *disk.Store satisfies
// it as is; memCorpus backs it with slices. Every scan must yield the same
// rows in the same order, and the stages never depend on where chunks break.
type corpus interface {
	Rows() int
	ScanColumns(ctx context.Context, target *feature.Schema, fn func(seq int, labels []int8, parts []feature.Columns) error) error
	ScanFirst(ctx context.Context, target *feature.Schema, n int, buf *[]feature.Vector, fn func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error) error
	Find(ctx context.Context, ids []int) (map[int]*feature.Vector, error)
}

// memCorpus is the in-memory corpus: all rows as one chunk, or chunk-row
// chunks when chunk > 0. Row index is point ID. Column scans read the vectors
// where they are; each ScanFirst target is projected once and kept for the
// run — the stages scan the image corpus in the graph schema three times — so
// ScanFirst slices that projection and never needs a buffer.
type memCorpus struct {
	vecs   []*feature.Vector
	labels []int8
	chunk  int
	proj   map[*feature.Schema][]*feature.Vector
}

func (c *memCorpus) Rows() int { return len(c.vecs) }

// chunks calls fn with the bounds of every chunk of the first n rows in
// order.
func (c *memCorpus) chunks(ctx context.Context, n int, fn func(seq, lo, hi int) error) error {
	size := c.chunk
	if size <= 0 {
		size = len(c.vecs)
	}
	n = min(n, len(c.vecs))
	for seq, lo := 0, 0; lo < n; seq, lo = seq+1, lo+size {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(seq, lo, min(lo+size, n)); err != nil {
			return err
		}
	}
	return nil
}

func (c *memCorpus) ScanColumns(ctx context.Context, target *feature.Schema, fn func(seq int, labels []int8, parts []feature.Columns) error) error {
	return c.chunks(ctx, len(c.vecs), func(seq, lo, hi int) error {
		return fn(seq, c.labels[lo:hi], feature.VectorColumns(target, c.vecs[lo:hi]))
	})
}

func (c *memCorpus) ScanFirst(ctx context.Context, target *feature.Schema, n int, _ *[]feature.Vector, fn func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error) error {
	vecs, ok := c.proj[target]
	if !ok {
		vecs = make([]*feature.Vector, len(c.vecs))
		for i, v := range c.vecs {
			vecs[i] = v.Reproject(target)
		}
		if c.proj == nil {
			c.proj = make(map[*feature.Schema][]*feature.Vector)
		}
		c.proj[target] = vecs
	}
	return c.chunks(ctx, n, func(seq, lo, hi int) error {
		// Point IDs are the row indices lo..hi-1; no stage reads them.
		return fn(seq, nil, c.labels[lo:hi], vecs[lo:hi])
	})
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

// allRows gathers every row of c, decoded into schema, in memory.
func allRows(ctx context.Context, c corpus, schema *feature.Schema) ([]*feature.Vector, error) {
	out := make([]*feature.Vector, 0, c.Rows())
	err := c.ScanFirst(ctx, schema, c.Rows(), nil, func(_ int, _ []int, _ []int8, vecs []*feature.Vector) error {
		out = append(out, vecs...)
		return nil
	})
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

	// Composed once per run: memCorpus keys its projections by pointer.
	lfSchema, graphSchema *feature.Schema
	// windowSlab is the slab every graph window scan decodes into.
	windowSlab []feature.Vector
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
		// The simulated expert samples the whole dev set, so it is gathered
		// in memory — why CurateStreamed refuses ExpertLFs.
		expert := lf.DefaultExpert()
		report.LFExamined = min(expert.SampleSize, r.text.Rows())
		devVecs, err := allRows(ctx, r.text, r.lfSchema)
		if err != nil {
			return nil, fmt.Errorf("core: expert LFs: %w", err)
		}
		lfs, err := expert.Develop(devVecs, r.textLabels, xrand.New(r.p.opts.Seed^0xe4be27))
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

// scanWindow replays the image rows inside the graph window in append
// order, decoded into the graph schema and into r.windowSlab: fn must not
// keep the vectors.
func (r *curateRun) scanWindow(ctx context.Context, stage string, fn func([]*feature.Vector) error) error {
	return r.image.ScanFirst(ctx, r.graphSchema, r.window, &r.windowSlab, func(seq int, _ []int, _ []int8, vecs []*feature.Vector) error {
		if err := fn(vecs); err != nil {
			return err
		}
		return runChunkHook(r.chunkHook, stage, seq)
	})
}

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
	found, err := r.text.Find(ctx, textIdx)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fetch graph seeds: %w", err)
	}
	textNodes := make([]*feature.Vector, len(textIdx))
	for i, ti := range textIdx {
		v, ok := found[ti]
		if !ok {
			return labelprop.Cuts{}, 0, fmt.Errorf("core: text row %d missing from corpus", ti)
		}
		textNodes[i] = v.Reproject(gSchema)
	}

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
	acc.AddMeans(textNodes)
	if err := r.scanWindow(ctx, "scales:means", func(proj []*feature.Vector) error {
		acc.AddMeans(proj)
		return nil
	}); err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fit scales: %w", err)
	}
	acc.FinishMeans()
	acc.AddDevs(textNodes)
	if err := r.scanWindow(ctx, "scales:devs", func(proj []*feature.Vector) error {
		acc.AddDevs(proj)
		return nil
	}); err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fit scales: %w", err)
	}
	scales := acc.Scales()

	gcfg := p.opts.Graph
	gcfg.Seed = p.opts.Seed ^ 0x6a7f
	gcfg.Workers = p.opts.Workers
	if gcfg.Weights == nil && !p.opts.UniformGraphWeights {
		gcfg.Weights = fitGraphWeights(ctx, textNodes[:nSeeds], seedLabels, scales, p.opts.Seed^0x77)
	}
	b, err := labelprop.NewBuilder(gSchema, gcfg, scales)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}

	// The text nodes ride in the first image chunk's delta, so a one-chunk
	// corpus is one delta over the whole node list.
	pending := textNodes
	err = r.scanWindow(ctx, "graph", func(proj []*feature.Vector) error {
		if pending != nil {
			proj, pending = append(pending, proj...), nil
		}
		return b.ApplyDelta(ctx, proj)
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

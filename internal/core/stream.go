package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// StreamOptions configures the disk-backed streaming curation path
// (Pipeline.CurateStreamed): generation, featurization, LF mining,
// propagation, and denoising run in fixed-size chunks that spill to a
// sharded feature store, so memory stays bounded by the chunk size and the
// graph window instead of the corpus size.
type StreamOptions struct {
	// Dir is the feature-store root; the text and image corpora land in
	// Dir/text and Dir/image. Required.
	Dir string
	// ChunkSize bounds how many points are resident per pipeline stage
	// (default 4096).
	ChunkSize int
	// Shards is the per-store shard count (0: the store's default).
	Shards int
	// Resume reopens existing stores and skips re-featurizing chunks that
	// already committed: generation is replayed from the seed (cheap, and
	// it keeps the RNG stream and the label arrays aligned) while the
	// expensive featurize+spill step is skipped for the committed prefix.
	// Without Resume, CurateStreamed refuses non-empty stores.
	Resume bool
	// GraphWindow caps how many unlabeled-corpus rows join the propagation
	// graph, whose nodes are memory-resident. 0 means all rows — required
	// for bit-identity with the in-memory pipeline; rows past the window
	// get no propagation vote (the score LF abstains on them).
	GraphWindow int
	// TrainCap bounds the per-corpus rows Materialize loads back into
	// memory for end-model training (0 = all).
	TrainCap int
	// SkipCRC and CommitHook pass through to the disk stores (see
	// disk.Options); CommitHook is the crash-injection seam.
	SkipCRC    bool
	CommitHook func(op, path string) error
	// ChunkHook, when non-nil, runs after every chunk-granular step with a
	// stage tag and the chunk sequence number; an error aborts the run.
	// Tests use it for crash injection and memory-ceiling probes.
	ChunkHook func(stage string, chunk int) error
	// WarmPropagate re-propagates after every graph delta, warm-started
	// from the previous scores (labelprop.PropagateWarm), yielding
	// intermediate label estimates as the corpus streams in. Final scores
	// then agree with a cold run only to within Prop.Tol, so this is off
	// in bit-identity mode.
	WarmPropagate bool
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 4096
	}
	return o
}

// StreamedCuration is the streaming analogue of Curation: probabilistic
// labels plus open disk stores instead of materialized vector slices.
type StreamedCuration struct {
	// Text and Image are the open stores holding the featurized corpora in
	// generation order.
	Text, Image *disk.Store
	// TextLabels are the labeled-corpus labels in row order.
	TextLabels []int8
	// ImageTruth is the unlabeled corpus's hidden ground truth (also the
	// image store's label column), read only for the Report's WS quality
	// diagnostics — curation never trains on it.
	ImageTruth []int8
	// Pool and Test are the hand-label pool and test corpora; they are
	// small by construction and stay in memory.
	Pool, Test []*synth.Point
	// ProbLabels, Covered and Report mirror Curation.
	ProbLabels []float64
	Covered    []bool
	Report     Report
	// ReusedChunks counts store chunks whose featurization was skipped on a
	// Resume run because they had already committed; 0 on a cold run.
	ReusedChunks int

	task *synth.Task
	opts StreamOptions
}

// Close closes both stores.
func (sc *StreamedCuration) Close() error {
	err := sc.Text.Close()
	if e := sc.Image.Close(); err == nil {
		err = e
	}
	return err
}

// Materialize loads the curated corpora back into memory as a Curation for
// end-model training, bounded by StreamOptions.TrainCap rows per corpus.
// Vectors round-trip the store bit-exactly, so training on a materialized
// curation matches training on the in-memory pipeline's output.
func (sc *StreamedCuration) Materialize(ctx context.Context) (*Curation, error) {
	textVecs, err := loadVecs(ctx, sc.Text, sc.opts.TrainCap)
	if err != nil {
		return nil, fmt.Errorf("core: materialize text: %w", err)
	}
	imageVecs, err := loadVecs(ctx, sc.Image, sc.opts.TrainCap)
	if err != nil {
		return nil, fmt.Errorf("core: materialize image: %w", err)
	}
	return &Curation{
		Dataset:    &synth.Dataset{Task: sc.task, HandLabelPool: sc.Pool, TestImage: sc.Test},
		TextVecs:   textVecs,
		ImageVecs:  imageVecs,
		TextLabels: sc.TextLabels[:len(textVecs)],
		ProbLabels: sc.ProbLabels[:len(imageVecs)],
		Covered:    sc.Covered[:len(imageVecs)],
		Report:     sc.Report,
	}, nil
}

// errStopScan aborts a store scan early once enough rows were consumed.
var errStopScan = errors.New("core: stop scan")

func loadVecs(ctx context.Context, store *disk.Store, limit int) ([]*feature.Vector, error) {
	n := store.Rows()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]*feature.Vector, 0, n)
	err := store.ScanChunks(ctx, func(_ int, _ []int, _ []int8, vecs []*feature.Vector) error {
		if take := n - len(out); take < len(vecs) {
			vecs = vecs[:take]
		}
		out = append(out, vecs...)
		if len(out) >= n {
			return errStopScan
		}
		return nil
	})
	if errors.Is(err, errStopScan) {
		err = nil
	}
	return out, err
}

// CurateStreamed is Curate over a generated-on-the-fly dataset with
// bounded memory: points are generated, featurized, and spilled to disk
// stores chunk by chunk; LF mining streams over the store; the propagation
// graph grows by incremental deltas. With GraphWindow 0 and WarmPropagate
// off the result is bit-identical to BuildDataset + Curate at the same
// configuration (TestGoldenPipelineStreamed pins this).
func (p *Pipeline) CurateStreamed(ctx context.Context, w *synth.World, task *synth.Task, dsCfg synth.DatasetConfig, sopts StreamOptions) (*StreamedCuration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sopts = sopts.withDefaults()
	if sopts.Dir == "" {
		return nil, fmt.Errorf("core: StreamOptions.Dir is required")
	}
	if p.opts.LFSource == ExpertLFs {
		return nil, fmt.Errorf("core: streamed curation supports mined LFs only")
	}
	ctx, span := trace.Start(ctx, "pipeline.curate_streamed")
	defer span.End()

	stream, err := synth.NewStream(w, task, dsCfg)
	if err != nil {
		return nil, err
	}
	dopts := disk.Options{Shards: sopts.Shards, SkipCRC: sopts.SkipCRC, CommitHook: sopts.CommitHook}
	schema := p.lib.Schema()
	text, err := disk.Open(filepath.Join(sopts.Dir, "text"), schema, dopts)
	if err != nil {
		return nil, fmt.Errorf("core: open text store: %w", err)
	}
	image, err := disk.Open(filepath.Join(sopts.Dir, "image"), schema, dopts)
	if err != nil {
		text.Close()
		return nil, fmt.Errorf("core: open image store: %w", err)
	}
	r := &streamRun{p: p, opts: sopts, text: text, image: image, task: task}
	sc, err := r.run(ctx, stream)
	if err != nil {
		text.Close()
		image.Close()
		return nil, err
	}
	return sc, nil
}

// streamRun carries one CurateStreamed execution's state.
type streamRun struct {
	p           *Pipeline
	opts        StreamOptions
	task        *synth.Task
	text, image *disk.Store
	textLabels  []int8
	imageTruth  []int8
	pool, test  []*synth.Point
	reused      int
}

func (r *streamRun) hook(stage string, chunk int) error {
	if r.opts.ChunkHook == nil {
		return nil
	}
	if err := r.opts.ChunkHook(stage, chunk); err != nil {
		return fmt.Errorf("core: chunk hook at %s[%d]: %w", stage, chunk, err)
	}
	return nil
}

func (r *streamRun) run(ctx context.Context, stream *synth.Stream) (*StreamedCuration, error) {
	timings := make(map[string]time.Duration)
	stage := func(name string, start time.Time) { timings[name] = time.Since(start) }

	start := time.Now()
	if err := r.ingest(ctx, stream); err != nil {
		return nil, err
	}
	stage("ingest", start)

	report := Report{Task: r.task.Name, Timings: timings}
	sc := &StreamedCuration{
		Text:         r.text,
		Image:        r.image,
		TextLabels:   r.textLabels,
		ImageTruth:   r.imageTruth,
		Pool:         r.pool,
		Test:         r.test,
		ReusedChunks: r.reused,
		task:         r.task,
		opts:         r.opts,
	}
	nImages := r.image.Rows()
	if !r.p.opts.UseImage {
		sc.ProbLabels = make([]float64, nImages)
		sc.Covered = make([]bool, nImages)
		sc.Report = report
		return sc, nil
	}

	lfSchema := r.p.lfSchema()
	mrCfg := mapreduce.Config{Workers: r.p.opts.Workers}

	start = time.Now()
	corpus := &storeCorpus{run: r, schema: lfSchema}
	lfs, miningReport, err := mining.MineStream(ctx, mrCfg, r.p.opts.Mining, corpus)
	if err != nil {
		return nil, fmt.Errorf("core: mine LFs: %w", err)
	}
	stage("lf-generation", start)

	start = time.Now()
	applyCtx, applySpan := trace.Start(ctx, "lf.apply")
	devMatrix, err := r.applyChunked(applyCtx, mrCfg, lfs, r.text, lfSchema, "lf-apply:text")
	if err != nil {
		applySpan.End()
		return nil, fmt.Errorf("core: apply LFs to dev: %w", err)
	}
	mined := len(lfs)
	if !r.p.opts.DisableLFDedup {
		lfs, devMatrix = dedupeLFs(lfs, devMatrix, r.textLabels)
	}
	applySpan.Add("lfs_kept", int64(len(lfs)))
	applySpan.Add("lfs_rejected", int64(mined-len(lfs)))
	matrix, err := r.applyChunked(applyCtx, mrCfg, lfs, r.image, lfSchema, "lf-apply:image")
	applySpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: apply LFs: %w", err)
	}
	stage("lf-apply", start)

	report.Mining = miningReport
	report.DevStats = lf.EvaluateAll(devMatrix, r.textLabels)

	if r.p.opts.UseLabelProp {
		start = time.Now()
		lpCtx, lpSpan := trace.Start(ctx, "labelprop")
		cuts, iters, err := r.propagateStreamed(lpCtx, matrix, devMatrix)
		lpSpan.End()
		if err != nil {
			return nil, err
		}
		report.Cuts, report.PropIters = cuts, iters
		stage("label-propagation", start)
	}
	report.LFCount = matrix.NumLFs()

	start = time.Now()
	lmCtx, lmSpan := trace.Start(ctx, "labelmodel")
	probs, covered, lm, err := r.p.denoise(lmCtx, matrix, devMatrix, r.textLabels)
	lmSpan.End()
	if err != nil {
		return nil, err
	}
	report.LabelModel = lm
	stage("label-model", start)
	report.WSCoverage = coverageRate(covered)
	report.WSPrecision, report.WSRecall, report.WSF1 = wsQualityLabels(probs, covered, r.imageTruth, metrics.BaseRate(r.textLabels))

	sc.ProbLabels, sc.Covered, sc.Report = probs, covered, report
	return sc, nil
}

// ingest drains the generator: text and image chunks are featurized and
// spilled to their stores, pool and test points (small by construction)
// are kept in memory. With Resume, chunks already committed to a store are
// not re-featurized — generation replays deterministically, so labels and
// row order still line up with the stored prefix.
func (r *streamRun) ingest(ctx context.Context, stream *synth.Stream) error {
	ctx, span := trace.Start(ctx, "stream.ingest")
	defer span.End()
	if !r.opts.Resume && (r.text.Chunks() > 0 || r.image.Chunks() > 0) {
		return fmt.Errorf("core: store at %s already has data; set StreamOptions.Resume or start from an empty directory", r.opts.Dir)
	}
	textSkip, imageSkip := 0, 0
	if r.opts.Resume {
		textSkip, imageSkip = r.text.Chunks(), r.image.Chunks()
	}
	textChunks, imageChunks := 0, 0
	for {
		ch := stream.Next(r.opts.ChunkSize)
		if ch == nil {
			break
		}
		switch ch.Corpus {
		case synth.TextCorpus:
			// Text row index must equal point ID: propagation addresses
			// seed rows in the store by Find(ID).
			for i, pt := range ch.Points {
				if pt.ID != ch.Start+i {
					return fmt.Errorf("core: text point ID %d at corpus offset %d", pt.ID, ch.Start+i)
				}
			}
			labels := synth.Labels(ch.Points)
			r.textLabels = append(r.textLabels, labels...)
			if err := r.spill(ctx, r.text, ch, labels, textChunks, textSkip); err != nil {
				return err
			}
			if err := r.hook("ingest:text", textChunks); err != nil {
				return err
			}
			textChunks++
		case synth.ImageCorpus:
			truth := synth.Labels(ch.Points)
			r.imageTruth = append(r.imageTruth, truth...)
			if err := r.spill(ctx, r.image, ch, truth, imageChunks, imageSkip); err != nil {
				return err
			}
			if err := r.hook("ingest:image", imageChunks); err != nil {
				return err
			}
			imageChunks++
		case synth.PoolCorpus:
			r.pool = append(r.pool, ch.Points...)
		case synth.TestCorpus:
			r.test = append(r.test, ch.Points...)
		}
	}
	if r.text.Rows() != len(r.textLabels) || r.image.Rows() != len(r.imageTruth) {
		return fmt.Errorf("core: store rows (%d text, %d image) disagree with generated corpus (%d, %d); was the store written with a different dataset config?",
			r.text.Rows(), r.image.Rows(), len(r.textLabels), len(r.imageTruth))
	}
	span.SetInt("text_rows", int64(len(r.textLabels)))
	span.SetInt("image_rows", int64(len(r.imageTruth)))
	span.SetInt("chunks_reused", int64(r.reused))
	return nil
}

func (r *streamRun) spill(ctx context.Context, store *disk.Store, ch *synth.Chunk, labels []int8, seq, skip int) error {
	if seq < skip {
		if got := store.ChunkRows(seq); got != len(ch.Points) {
			return fmt.Errorf("core: resume mismatch: store chunk %d has %d rows, generator produced %d (different ChunkSize or dataset config?)", seq, got, len(ch.Points))
		}
		r.reused++
		return nil
	}
	vecs, err := r.p.Featurize(ctx, ch.Points)
	if err != nil {
		return fmt.Errorf("core: featurize chunk: %w", err)
	}
	ids := make([]int, len(ch.Points))
	for i, pt := range ch.Points {
		ids[i] = pt.ID
	}
	if err := store.AppendChunk(ctx, ids, labels, vecs); err != nil {
		return fmt.Errorf("core: spill chunk: %w", err)
	}
	return nil
}

// applyChunked applies LFs to a store's rows chunk by chunk, concatenating
// the per-chunk vote matrices — identical to one lf.Apply over the whole
// corpus because votes are per-point.
func (r *streamRun) applyChunked(ctx context.Context, mrCfg mapreduce.Config, lfs []*lf.LF, store *disk.Store, schema *feature.Schema, stage string) (*lf.Matrix, error) {
	var matrix *lf.Matrix
	err := store.ScanProjected(ctx, schema, func(seq int, _ []int, _ []int8, vecs []*feature.Vector) error {
		m, err := lf.Apply(ctx, mrCfg, lfs, vecs)
		if err != nil {
			return err
		}
		if matrix == nil {
			matrix = m
		} else {
			matrix.Votes = append(matrix.Votes, m.Votes...)
		}
		return r.hook(stage, seq)
	})
	return matrix, err
}

// scanWindow replays the first window image rows in append order, decoded
// into schema.
func (r *streamRun) scanWindow(ctx context.Context, schema *feature.Schema, window int, stage string, fn func([]*feature.Vector) error) error {
	if window == 0 {
		return nil
	}
	seen := 0
	err := r.image.ScanProjected(ctx, schema, func(seq int, _ []int, _ []int8, vecs []*feature.Vector) error {
		if take := window - seen; take < len(vecs) {
			vecs = vecs[:take]
		}
		seen += len(vecs)
		if err := fn(vecs); err != nil {
			return err
		}
		if err := r.hook(stage, seq); err != nil {
			return err
		}
		if seen >= window {
			return errStopScan
		}
		return nil
	})
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

// propagateStreamed is the streaming propagate: seed and dev text nodes are
// fetched from the store by ID (they are bounded by MaxGraphSeeds and
// GraphDevNodes), scales are fitted with the chunked accumulator, and the
// graph grows by one labelprop.Builder delta per image chunk instead of a
// monolithic build. Node assembly order — seeds, dev, images — matches the
// in-memory path exactly, and the Builder's delta property makes the chunked
// graph bit-identical to BuildGraph, so a cold final propagation reproduces
// the in-memory scores bit for bit.
func (r *streamRun) propagateStreamed(ctx context.Context, matrix, devMatrix *lf.Matrix) (labelprop.Cuts, int, error) {
	p := r.p
	gSchema := p.graphSchema()
	nText, nImages := r.text.Rows(), r.image.Rows()
	seedIdx, devIdx, err := p.graphSplit(nText)
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}
	window := r.opts.GraphWindow
	if window <= 0 || window > nImages {
		window = nImages
	}

	need := make([]int, 0, len(seedIdx)+len(devIdx))
	need = append(need, seedIdx...)
	need = append(need, devIdx...)
	found, err := r.text.Find(ctx, need)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fetch graph seeds: %w", err)
	}
	fetch := func(idx []int) ([]*feature.Vector, error) {
		out := make([]*feature.Vector, len(idx))
		for i, ti := range idx {
			v, ok := found[ti]
			if !ok {
				return nil, fmt.Errorf("core: text row %d missing from store", ti)
			}
			out[i] = v.Reproject(gSchema)
		}
		return out, nil
	}
	seedNodes, err := fetch(seedIdx)
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}
	devNodes, err := fetch(devIdx)
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}

	seeds := make(map[int]float64, len(seedIdx))
	var posSeeds float64
	for i, ti := range seedIdx {
		if r.textLabels[ti] > 0 {
			seeds[i] = 1
			posSeeds++
		} else {
			seeds[i] = 0
		}
	}

	// Scales over the full node list in node order: the chunked accumulator
	// is bit-identical to feature.FitScales over the assembled nodes.
	acc := feature.NewScalesAccum(gSchema)
	acc.AddMeans(seedNodes)
	acc.AddMeans(devNodes)
	if err := r.scanWindow(ctx, gSchema, window, "scales:means", func(proj []*feature.Vector) error {
		acc.AddMeans(proj)
		return nil
	}); err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fit scales: %w", err)
	}
	acc.FinishMeans()
	acc.AddDevs(seedNodes)
	acc.AddDevs(devNodes)
	if err := r.scanWindow(ctx, gSchema, window, "scales:devs", func(proj []*feature.Vector) error {
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
		seedLabels := make([]int8, len(seedIdx))
		for i, ti := range seedIdx {
			seedLabels[i] = r.textLabels[ti]
		}
		if weights, werr := FitGraphWeights(seedNodes, seedLabels, scales, 20000, p.opts.Seed^0x77); werr == nil {
			gcfg.Weights = weights
		}
	}

	b, err := labelprop.NewBuilder(gSchema, gcfg, scales)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}
	textNodes := make([]*feature.Vector, 0, len(seedNodes)+len(devNodes))
	textNodes = append(textNodes, seedNodes...)
	textNodes = append(textNodes, devNodes...)
	if err := b.ApplyDelta(ctx, textNodes); err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}

	pcfg := p.opts.Prop
	pcfg.Prior = posSeeds / float64(len(seedIdx))
	var res *labelprop.Result
	err = r.scanWindow(ctx, gSchema, window, "graph", func(proj []*feature.Vector) error {
		if err := b.ApplyDelta(ctx, proj); err != nil {
			return err
		}
		if r.opts.WarmPropagate {
			var prev []float64
			if res != nil {
				prev = res.Scores
			}
			warm, werr := labelprop.PropagateWarm(ctx, b.Graph(), seeds, pcfg, prev)
			if werr != nil {
				return werr
			}
			res = warm
		}
		return nil
	})
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}
	if res == nil {
		res, err = labelprop.Propagate(ctx, b.Graph(), seeds, pcfg)
		if err != nil {
			return labelprop.Cuts{}, 0, fmt.Errorf("core: propagate: %w", err)
		}
	}

	devStart := len(seedNodes)
	imageStart := devStart + len(devNodes)
	devScores := res.Scores[devStart:imageStart]
	devLabels := make([]int8, len(devIdx))
	for i, ti := range devIdx {
		devLabels[i] = r.textLabels[ti]
	}
	cuts, err := p.tunePropCuts(devScores, devLabels, posSeeds/float64(len(seedIdx)), res.Scores[imageStart:])
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}

	// Rows past the graph window abstain (zero-valued Present).
	imageScores := make([]float64, nImages)
	imagePresent := make([]bool, nImages)
	copy(imageScores, res.Scores[imageStart:])
	copy(imagePresent, res.Reached[imageStart:])
	if err := appendPropLF(matrix, devMatrix, cuts, imageScores, imagePresent,
		devIdx, devScores, res.Reached[devStart:imageStart]); err != nil {
		return labelprop.Cuts{}, 0, err
	}
	return cuts, res.Iters, nil
}

// storeCorpus adapts the run's text store to mining.Corpus, decoding each
// chunk straight into the LF feature space.
type storeCorpus struct {
	run    *streamRun
	schema *feature.Schema
}

func (c *storeCorpus) Schema() *feature.Schema { return c.schema }

func (c *storeCorpus) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	return c.run.text.ScanProjected(ctx, c.schema, func(seq int, _ []int, labels []int8, vecs []*feature.Vector) error {
		if err := fn(vecs, labels); err != nil {
			return err
		}
		return c.run.hook("mine", seq)
	})
}

package core

import (
	"context"
	"fmt"
	"path/filepath"

	"crossmodal/internal/featurestore/disk"
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
	textVecs, err := firstRows(ctx, sc.Text, sc.Text.Schema(), sc.opts.TrainCap)
	if err != nil {
		return nil, fmt.Errorf("core: materialize text: %w", err)
	}
	imageVecs, err := firstRows(ctx, sc.Image, sc.Image.Schema(), sc.opts.TrainCap)
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

// CurateStreamed is Curate over a generated-on-the-fly dataset with
// bounded memory: points are generated, featurized, and spilled to disk
// stores chunk by chunk, then the same curation stages Curate runs scan the
// stores instead of in-memory slices. With GraphWindow 0 and WarmPropagate
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
	r := &streamRun{p: p, opts: sopts}
	sc, err := r.run(ctx, stream, task, text, image)
	if err != nil {
		text.Close()
		image.Close()
		return nil, err
	}
	return sc, nil
}

// streamRun carries one CurateStreamed execution's ingest state.
type streamRun struct {
	p          *Pipeline
	opts       StreamOptions
	textLabels []int8
	imageTruth []int8
	pool, test []*synth.Point
	reused     int
}

// run ingests the generated corpora into the stores and runs the curation
// stages over them.
func (r *streamRun) run(ctx context.Context, stream *synth.Stream, task *synth.Task, text, image *disk.Store) (*StreamedCuration, error) {
	if err := r.ingest(ctx, stream, text, image); err != nil {
		return nil, err
	}
	eng := &curateRun{
		p: r.p, task: task.Name,
		text: text, image: image,
		textLabels: r.textLabels, imageTruth: r.imageTruth,
		window: r.opts.GraphWindow, warm: r.opts.WarmPropagate, chunkHook: r.opts.ChunkHook,
	}
	probs, covered, report, err := eng.curate(ctx)
	if err != nil {
		return nil, err
	}
	return &StreamedCuration{
		Text:         text,
		Image:        image,
		TextLabels:   r.textLabels,
		ImageTruth:   r.imageTruth,
		Pool:         r.pool,
		Test:         r.test,
		ProbLabels:   probs,
		Covered:      covered,
		Report:       report,
		ReusedChunks: r.reused,
		task:         task,
		opts:         r.opts,
	}, nil
}

// ingest drains the generator: text and image chunks are featurized and
// spilled to their stores, pool and test points (small by construction)
// are kept in memory. With Resume, chunks already committed to a store are
// not re-featurized — generation replays deterministically, so labels and
// row order still line up with the stored prefix.
func (r *streamRun) ingest(ctx context.Context, stream *synth.Stream, text, image *disk.Store) error {
	ctx, span := trace.Start(ctx, "stream.ingest")
	defer span.End()
	if !r.opts.Resume && (text.Chunks() > 0 || image.Chunks() > 0) {
		return fmt.Errorf("core: store at %s already has data; set StreamOptions.Resume or start from an empty directory", r.opts.Dir)
	}
	textSkip, imageSkip := 0, 0
	if r.opts.Resume {
		textSkip, imageSkip = text.Chunks(), image.Chunks()
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
			if err := r.spill(ctx, text, ch, labels, textChunks, textSkip); err != nil {
				return err
			}
			if err := runChunkHook(r.opts.ChunkHook, "ingest:text", textChunks); err != nil {
				return err
			}
			textChunks++
		case synth.ImageCorpus:
			truth := synth.Labels(ch.Points)
			r.imageTruth = append(r.imageTruth, truth...)
			if err := r.spill(ctx, image, ch, truth, imageChunks, imageSkip); err != nil {
				return err
			}
			if err := runChunkHook(r.opts.ChunkHook, "ingest:image", imageChunks); err != nil {
				return err
			}
			imageChunks++
		case synth.PoolCorpus:
			r.pool = append(r.pool, ch.Points...)
		case synth.TestCorpus:
			r.test = append(r.test, ch.Points...)
		}
	}
	if text.Rows() != len(r.textLabels) || image.Rows() != len(r.imageTruth) {
		return fmt.Errorf("core: store rows (%d text, %d image) disagree with generated corpus (%d, %d); was the store written with a different dataset config?",
			text.Rows(), image.Rows(), len(r.textLabels), len(r.imageTruth))
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

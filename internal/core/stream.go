package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// StreamOptions configures the disk-backed streaming curation path
// (Pipeline.CurateStreamed): generation, featurization, LF mining,
// propagation, and denoising run in fixed-size chunks that spill to a
// chunked feature store, so memory stays bounded by the chunk size and the
// graph window instead of the corpus size.
type StreamOptions struct {
	// Dir is the feature-store root; the text and image corpora land in
	// Dir/text and Dir/image. Required.
	Dir string
	// ChunkSize bounds how many points are resident per pipeline stage
	// (default 4096).
	ChunkSize int
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
	// CommitHook passes through to the disk stores (see disk.Options): the
	// crash-injection seam.
	CommitHook func(op, path string) error
	// ChunkHook, when non-nil, runs after every chunk-granular step with a
	// stage tag and the chunk sequence number; an error aborts the run.
	// Tests use it for crash injection and memory-ceiling probes.
	ChunkHook func(stage string, chunk int) error
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
// end-model training. Vectors round-trip the store bit-exactly, so training
// on a materialized curation matches training on the in-memory pipeline's
// output.
func (sc *StreamedCuration) Materialize(ctx context.Context) (*Curation, error) {
	textVecs, err := allRows(ctx, sc.Text, sc.Text.Schema())
	if err != nil {
		return nil, fmt.Errorf("core: materialize text: %w", err)
	}
	imageVecs, err := allRows(ctx, sc.Image, sc.Image.Schema())
	if err != nil {
		return nil, fmt.Errorf("core: materialize image: %w", err)
	}
	return &Curation{
		Dataset:    &synth.Dataset{Task: sc.task, HandLabelPool: sc.Pool, TestImage: sc.Test},
		TextVecs:   textVecs,
		ImageVecs:  imageVecs,
		TextLabels: sc.TextLabels,
		ProbLabels: sc.ProbLabels,
		Covered:    sc.Covered,
		Report:     sc.Report,
	}, nil
}

// CurateStreamed is Curate over a generated-on-the-fly dataset with
// bounded memory: points are generated, featurized, and spilled to disk
// stores chunk by chunk, then the same curation stages Curate runs scan the
// stores instead of in-memory slices. With GraphWindow 0 the result is
// bit-identical to BuildDataset + Curate at the same configuration
// (TestContract pins this).
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
	dopts := disk.Options{CommitHook: sopts.CommitHook}
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
		window: r.opts.GraphWindow, chunkHook: r.opts.ChunkHook,
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
	}, nil
}

// ingest drains the generator: text and image chunks are featurized and
// spilled to their stores, pool and test points (small by construction)
// are kept in memory. With Resume, chunks already committed to a store are
// not re-featurized — generation replays deterministically, so labels and
// row order still line up with the stored prefix.
//
// The three stages overlap: one goroutine generates chunk k+1 while the
// caller featurizes chunk k and one goroutine commits chunk k-1, then runs
// its ingest hook. Both hand-offs are rendezvous, so at most two chunks of
// points and two of vectors are alive at once — and those are the only two of
// each ever made: the stage that finishes with a buffer puts it on a ring for
// the stage that refills it (featurize returns the points to the generator,
// the committer the vectors to featurize). Only the committing goroutine
// touches the stores, in generation order: hook k runs before commit k+1, and
// nothing is committed once a commit or a hook has failed or ctx has ended.
// The first error of any stage stops the other two and is returned after
// both goroutines have exited.
func (r *streamRun) ingest(ctx context.Context, stream *synth.Stream, text, image *disk.Store) error {
	ctx, span := trace.Start(ctx, "stream.ingest")
	defer span.End()
	if !r.opts.Resume && (text.Chunks() > 0 || image.Chunks() > 0) {
		return fmt.Errorf("core: store at %s already has data; set StreamOptions.Resume or start from an empty directory", r.opts.Dir)
	}
	// Without Resume both stores were just checked empty: nothing to skip.
	sinks := map[synth.CorpusKind]*corpusSink{
		synth.TextCorpus:  {store: text, stage: "ingest:text", skip: text.Chunks(), labels: &r.textLabels},
		synth.ImageCorpus: {store: image, stage: "ingest:image", skip: image.Chunks(), labels: &r.imageTruth},
	}
	// The first cause given to fail wins, the caller's cancellation included.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	chunks, spills := make(chan *synth.Chunk), make(chan spillJob) // unbuffered: the memory bound
	// Depth 2: the bound above, so a put never finds its ring full.
	points, batches := make(ring[*synth.Chunk], 2), make(ring[*resource.Batch], 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(chunks)
		for {
			_, gen := trace.Start(ctx, "synth.generate")
			ch := stream.NextInto(points.get(), r.opts.ChunkSize)
			if ch != nil {
				gen.Add("points", int64(len(ch.Points)))
				gen.Add("chunks", 1)
			}
			gen.End()
			if ch == nil {
				return
			}
			select {
			case chunks <- ch:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for job := range spills {
			if err := r.commit(ctx, job); err != nil {
				fail(err)
				return
			}
			if job.batch != nil {
				batches.put(job.batch)
			}
		}
	}()
	for ch := range chunks {
		if err := r.featurize(ctx, sinks[ch.Corpus], ch, spills, batches); err != nil {
			fail(err)
			break
		}
		// The pool and test corpora keep their points.
		if sinks[ch.Corpus] != nil {
			points.put(ch)
		}
	}
	close(spills)
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return err
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

// corpusSink is where ingest sends one corpus's chunks.
type corpusSink struct {
	store  *disk.Store
	stage  string  // the chunk hook's tag
	skip   int     // chunks already committed, reused on Resume
	labels *[]int8 // the run's label column for the corpus
}

// ring is where a stage puts the buffers it is done with, for the stage that
// refills them. Neither end waits: get on an empty ring yields nil, which the
// refilling stage replaces with a new buffer, and put on a full one drops.
type ring[T any] chan T

func (r ring[T]) get() (buf T) {
	select {
	case buf = <-r:
	default:
	}
	return buf
}

func (r ring[T]) put(buf T) {
	select {
	case r <- buf:
	default:
	}
}

// spillJob is one chunk on its way to its store; nil vecs: already there.
type spillJob struct {
	sink   *corpusSink
	seq    int
	ids    []int
	labels []int8
	vecs   []*feature.Vector
	batch  *resource.Batch // the memory behind vecs
}

// featurize is ingest's middle stage for one chunk, on the caller's
// goroutine: record the labels, featurize unless the store already holds the
// chunk — refilling a batch from the ring — and hand the result on. The pool
// and test corpora have no sink.
func (r *streamRun) featurize(ctx context.Context, sink *corpusSink, ch *synth.Chunk, spills chan<- spillJob, batches ring[*resource.Batch]) error {
	switch ch.Corpus {
	case synth.PoolCorpus:
		r.pool = append(r.pool, ch.Points...)
		return nil
	case synth.TestCorpus:
		r.test = append(r.test, ch.Points...)
		return nil
	}
	// Chunks of one corpus are ChunkSize long but the last, so Start counts them.
	job := spillJob{sink: sink, seq: ch.Start / r.opts.ChunkSize, ids: make([]int, len(ch.Points)), labels: synth.Labels(ch.Points)}
	for i, pt := range ch.Points {
		// Text row index must equal point ID: propagation addresses seed
		// rows in the store by Find(ID).
		if ch.Corpus == synth.TextCorpus && pt.ID != ch.Start+i {
			return fmt.Errorf("core: text point ID %d at corpus offset %d", pt.ID, ch.Start+i)
		}
		job.ids[i] = pt.ID
	}
	*sink.labels = append(*sink.labels, job.labels...)
	if job.seq >= sink.skip {
		if job.batch = batches.get(); job.batch == nil {
			job.batch = new(resource.Batch)
		}
		var err error
		if job.vecs, err = r.p.featurizeInto(ctx, ch.Points, job.batch); err != nil {
			return fmt.Errorf("core: featurize chunk: %w", err)
		}
	}
	select {
	case spills <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// commit is ingest's last stage for one chunk, on the committing goroutine:
// append it to its store — or, on Resume, check the store's copy — then run
// the chunk's ingest hook.
func (r *streamRun) commit(ctx context.Context, job spillJob) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	store := job.sink.store
	if job.vecs == nil {
		if got := store.ChunkRows(job.seq); got != len(job.ids) {
			return fmt.Errorf("core: resume mismatch: store chunk %d has %d rows, generator produced %d (different ChunkSize or dataset config?)", job.seq, got, len(job.ids))
		}
		r.reused++
	} else if err := store.AppendChunk(ctx, job.ids, job.labels, job.vecs); err != nil {
		return fmt.Errorf("core: spill chunk: %w", err)
	}
	return runChunkHook(r.opts.ChunkHook, job.sink.stage, job.seq)
}

package synth

// Stream is the dataset generator: one shared RNG, one ID sequence, handed
// out in bounded chunks so million-point corpora never exist as one slice.
// The pipeline's streaming front half (core.CurateStreamed) drives it and
// spills each chunk to the disk feature store; BuildDataset is the
// one-chunk-per-corpus case.

import (
	"math/rand"
	"slices"

	"crossmodal/internal/xrand"
)

// CorpusKind identifies which dataset corpus a streamed chunk belongs to.
type CorpusKind int

const (
	TextCorpus CorpusKind = iota
	ImageCorpus
	PoolCorpus
	TestCorpus
	numCorpora
)

func (k CorpusKind) String() string {
	switch k {
	case TextCorpus:
		return "text"
	case ImageCorpus:
		return "image"
	case PoolCorpus:
		return "pool"
	case TestCorpus:
		return "test"
	}
	return "unknown"
}

// Chunk is one bounded run of consecutive points from a single corpus.
// Points never span a corpus boundary, so a consumer can route each chunk
// wholesale by Corpus.
type Chunk struct {
	Corpus CorpusKind
	// Start is the chunk's offset within its corpus (not the global ID).
	Start  int
	Points []*Point
}

// Stream yields a dataset chunk by chunk. The generation order — and every
// RNG draw — is independent of the chunk sizes asked for, which is what
// makes the streamed pipeline bit-identical to the in-memory one: text,
// then unlabeled image, then hand-label pool, then test, all from one
// sequential generator.
type Stream struct {
	w      *World
	task   *Task
	cfg    DatasetConfig
	rng    *rand.Rand
	sizes  [numCorpora]int
	corpus CorpusKind
	offset int // points already emitted within the current corpus
	nextID int
}

// NewStream validates cfg, calibrates the task if it has not been already,
// and returns a stream positioned at the first text point.
func NewStream(w *World, task *Task, cfg DatasetConfig) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	calN := cfg.CalibrationSamples
	if calN == 0 {
		calN = 40000
	}
	if !task.calibrated {
		if err := task.Calibrate(w, calN, cfg.Seed^0x5ca1ab1e); err != nil {
			return nil, err
		}
	}
	s := &Stream{w: w, task: task, cfg: cfg, rng: xrand.New(cfg.Seed)}
	s.sizes = [numCorpora]int{cfg.NumText, cfg.NumUnlabeledImage, cfg.NumHandLabelPool, cfg.NumTest}
	return s, nil
}

// modalityOf maps a corpus to the modality it is sampled in.
func modalityOf(k CorpusKind) Modality {
	if k == TextCorpus {
		return Text
	}
	return Image
}

// Next returns the next chunk of at most max points, never crossing a
// corpus boundary. It returns nil when the dataset is exhausted.
func (s *Stream) Next(max int) *Chunk { return s.NextInto(nil, max) }

// NextInto is Next refilling c, a chunk this stream returned whose points
// nothing reads any more: its Points slice and the Points and Entities it
// holds, up to its capacity, are overwritten with exactly the values a fresh
// chunk would carry, and only the points c lacks are allocated. A nil c
// refills nothing. At the end of the dataset it returns nil and leaves c as
// it was.
func (s *Stream) NextInto(c *Chunk, max int) *Chunk {
	if max <= 0 {
		max = 4096
	}
	// Skip empty corpora (the hand-label pool may be size 0).
	for s.corpus < numCorpora && s.offset == s.sizes[s.corpus] {
		s.corpus++
		s.offset = 0
	}
	if s.corpus >= numCorpora {
		return nil
	}
	n := s.sizes[s.corpus] - s.offset
	if n > max {
		n = max
	}
	if c == nil {
		c = new(Chunk)
	}
	// The points past len are a longer earlier chunk's: still c's to reuse.
	pts := c.Points[:cap(c.Points)]
	if len(pts) < n {
		pts = slices.Grow(pts, n-len(pts))
	}
	pts = pts[:n]
	m := modalityOf(s.corpus)
	for i, p := range pts {
		if p == nil {
			p = &Point{Entity: new(Entity)}
			pts[i] = p
		}
		s.w.sampleInto(p.Entity, s.rng, m, s.nextID)
		*p = Point{
			ID:       s.nextID,
			Entity:   p.Entity,
			Modality: m,
			Seed:     PointSeed(s.cfg.Seed, s.nextID),
			Label:    s.task.Label(s.w, p.Entity),
		}
		s.nextID++
	}
	*c = Chunk{Corpus: s.corpus, Start: s.offset, Points: pts}
	s.offset += n
	return c
}

// Size returns corpus k's total size under the stream's config.
func (s *Stream) Size(k CorpusKind) int { return s.sizes[k] }

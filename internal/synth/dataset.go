package synth

import (
	"fmt"
	"math"
	"math/rand"

	"crossmodal/internal/xrand"
)

// Point is one data point: a rendering of a hidden entity in a concrete
// modality. Label always carries ground truth (+1/-1); whether a pipeline is
// *allowed* to read it is a property of the corpus the point sits in (the
// labeled text corpus and the test set expose labels; the unlabeled image
// corpus does not — see Dataset).
type Point struct {
	ID       int
	Entity   *Entity
	Modality Modality
	// Seed drives all modality-specific observation noise for this point,
	// so independently computed features of the same point agree.
	Seed uint64
	// Frames is the number of image frames a video point splits into
	// (paper §3.1.1: video is featurized by splitting into representative
	// frames); 0 for non-video points.
	Frames int
	Label  int8
}

// ObservationRNG returns a deterministic RNG for one named observation
// channel of this point (e.g. a particular service observing it). Distinct
// channels get independent streams; the same channel always gets the same
// stream.
func (p *Point) ObservationRNG(channel string) *rand.Rand {
	rng := xrand.New(0)
	p.SeedObservation(rng, channel)
	return rng
}

// SeedObservation restarts rng (an xrand generator) on the channel's stream
// — exactly the draws ObservationRNG(channel) yields — so a caller observing
// many channels of one point, the featurization hot path, builds one
// generator instead of one per channel.
func (p *Point) SeedObservation(rng *rand.Rand, channel string) {
	p.SeedChannel(rng, xrand.Hash(channel))
}

// SeedChannel is SeedObservation for a caller that keeps xrand.Hash(channel),
// as a resource library does: restarting the stream is one Mix.
func (p *Point) SeedChannel(rng *rand.Rand, channelHash uint64) {
	rng.Seed(int64(xrand.Mix(p.Seed ^ channelHash)))
}

// FrameRNG returns a deterministic RNG for one frame of a video point. The
// frame streams are Weyl offsets of the channel's sub-seed, so they are
// independent of each other and of the whole-point ObservationRNG stream
// without formatting a per-frame channel name.
func (p *Point) FrameRNG(channel string, frame int) *rand.Rand {
	rng := xrand.New(0)
	p.SeedFrame(rng, channel, frame)
	return rng
}

// SeedFrame is SeedObservation for FrameRNG(channel, frame)'s stream.
func (p *Point) SeedFrame(rng *rand.Rand, channel string, frame int) {
	sub := xrand.HashString(p.Seed, channel)
	rng.Seed(int64(xrand.Mix(sub + uint64(frame+1)*0x9e3779b97f4a7c15)))
}

// DatasetConfig sets corpus sizes for one task dataset. The paper's corpora
// (Table 1) hold 18–26M labeled text and 7.2–7.4M unlabeled image points;
// the defaults scale those ~1000× down while preserving the text:image ratio
// and the positive rates.
type DatasetConfig struct {
	Seed int64
	// NumText is the labeled old-modality corpus size.
	NumText int
	// NumUnlabeledImage is the new-modality corpus to be labeled by weak
	// supervision.
	NumUnlabeledImage int
	// NumHandLabelPool is the budget pool of hand-labeled image points the
	// cross-over experiments (Figure 5) draw from.
	NumHandLabelPool int
	// NumTest is the labeled image test set size.
	NumTest int
	// CalibrationSamples sizes task-threshold calibration (default 40000).
	CalibrationSamples int
}

// DefaultDatasetConfig returns the scale used by the experiment suite.
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{
		Seed:               7,
		NumText:            20000,
		NumUnlabeledImage:  8000,
		NumHandLabelPool:   8000,
		NumTest:            5000,
		CalibrationSamples: 40000,
	}
}

// Scaled returns c with its four corpus sizes multiplied by factor, none
// below floor — the one place a -scale flag turns into corpus sizes.
func (c DatasetConfig) Scaled(factor float64, floor int) DatasetConfig {
	scale := func(n int) int { return max(floor, int(float64(n)*factor)) }
	c.NumText = scale(c.NumText)
	c.NumUnlabeledImage = scale(c.NumUnlabeledImage)
	c.NumHandLabelPool = scale(c.NumHandLabelPool)
	c.NumTest = scale(c.NumTest)
	return c
}

func (c DatasetConfig) validate() error {
	if c.NumText <= 0 || c.NumUnlabeledImage <= 0 || c.NumTest <= 0 {
		return fmt.Errorf("synth: dataset sizes must be positive: %+v", c)
	}
	if c.NumHandLabelPool < 0 {
		return fmt.Errorf("synth: NumHandLabelPool must be >= 0")
	}
	return nil
}

// Dataset is the full corpus collection for one task, following the paper's
// protocol (§6.1): labeled data of the old modality, unlabeled live-traffic
// data of the new modality (sampled after the labeling cutoff, independent of
// the labeled image data — no train/test leakage), a hand-label pool for the
// fully supervised comparisons, and a labeled image test set.
type Dataset struct {
	Task  *Task
	World *World

	// LabeledText is the old-modality corpus; pipelines may read Label.
	LabeledText []*Point
	// UnlabeledImage is the new-modality corpus; pipelines must not read
	// Label (it is retained for post-hoc analysis only).
	UnlabeledImage []*Point
	// HandLabelPool holds labeled image points for fully supervised
	// baselines; disjoint from both UnlabeledImage and TestImage.
	HandLabelPool []*Point
	// TestImage is the held-out labeled evaluation set.
	TestImage []*Point
}

// BuildDataset samples a dataset for the task: the whole of Stream's output,
// one chunk per corpus. The task is calibrated as a side effect if it has
// not been already.
func BuildDataset(w *World, task *Task, cfg DatasetConfig) (*Dataset, error) {
	s, err := NewStream(w, task, cfg)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Task: task, World: w}
	for c := s.Next(math.MaxInt); c != nil; c = s.Next(math.MaxInt) {
		switch c.Corpus {
		case TextCorpus:
			ds.LabeledText = c.Points
		case ImageCorpus:
			ds.UnlabeledImage = c.Points
		case PoolCorpus:
			ds.HandLabelPool = c.Points
		case TestCorpus:
			ds.TestImage = c.Points
		}
	}
	return ds, nil
}

// PointSeed is the observation-noise seed of point id under a base seed: the
// one mix corpus generation, drifting traffic and serving (serve.DerivePoint)
// share, so the same (seed, id) featurizes identically wherever it is
// rendered.
func PointSeed(seed int64, id int) uint64 {
	return xrand.Mix(uint64(seed)<<20 ^ uint64(id))
}

// SampleVideo draws n video points, each splitting into frames image frames,
// from the new-modality prior. Used by the video-adaptation example.
func SampleVideo(w *World, task *Task, n, frames int, seed int64) []*Point {
	rng := xrand.New(seed)
	pts := make([]*Point, n)
	for i := range pts {
		e := w.SampleEntity(rng, Video, i)
		pts[i] = &Point{
			ID:       i,
			Entity:   e,
			Modality: Video,
			Seed:     xrand.Mix(uint64(seed)<<20 ^ uint64(i) ^ 0xf00d),
			Frames:   frames,
			Label:    task.Label(w, e),
		}
	}
	return pts
}

// PositiveRate returns the fraction of points with Label == +1.
func PositiveRate(pts []*Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	n := 0
	for _, p := range pts {
		if p.Label > 0 {
			n++
		}
	}
	return float64(n) / float64(len(pts))
}

// Labels extracts the ground-truth labels of pts in order.
func Labels(pts []*Point) []int8 {
	out := make([]int8, len(pts))
	for i, p := range pts {
		out[i] = p.Label
	}
	return out
}

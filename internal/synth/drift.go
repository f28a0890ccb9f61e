package synth

// Time-varying traffic: the latent world's sampling priors shift and its
// observation services decay on a deterministic schedule, so serving-time
// drift episodes are seed-reproducible end to end. This is the synthetic
// stand-in for the paper's deployment reality — the organization's data
// moves under the model ("Changing Modalities" treats shift as the normal
// operating condition) — and the substrate the lifecycle controller's
// detect→retrain→promote loop is tested against.
//
// The drift model has two axes per epoch:
//
//   - Topic/URL-mix shift: the image-modality sampling priors are reweighted
//     by multiplicative log-normal noise (the same mechanism as the static
//     text→image covariate shift, applied again through time). Risk loadings
//     never move, so ground-truth labels stay consistent across epochs —
//     pure covariate drift.
//   - Fidelity decay: with probability Decay per attribute, the observed
//     entity's topic/URL is misread or its objects/keywords truncated
//     *after* the true label is assigned. Features decouple from labels —
//     concept drift as seen by any feature-based model.
//
// Epoch boundaries are injectable changepoints: every point's rendering
// depends only on (schedule seed, point ID, epoch index), never on wall
// clock or generation order, so any window replays bit-identically.

import (
	"fmt"
	"math/rand"

	"crossmodal/internal/xrand"
)

// Epoch is one homogeneous traffic regime.
type Epoch struct {
	// N is the number of traffic points in this epoch.
	N int
	// TopicShift and URLShift reweight this epoch's image-modality sampling
	// priors relative to the previous epoch (log-normal magnitude; 0 keeps
	// the previous priors exactly).
	TopicShift, URLShift float64
	// Decay is the per-attribute probability that an observation service
	// misreads the entity (topic or URL replaced uniformly, objects or
	// keywords truncated). In [0, 1).
	Decay float64
}

// DriftSchedule is a deterministic sequence of epochs over one seed.
type DriftSchedule struct {
	Seed   int64
	Epochs []Epoch
}

// Total returns the schedule's total traffic size.
func (s DriftSchedule) Total() int {
	n := 0
	for _, ep := range s.Epochs {
		n += ep.N
	}
	return n
}

func (s DriftSchedule) validate() error {
	if len(s.Epochs) == 0 {
		return fmt.Errorf("synth: drift schedule needs at least one epoch")
	}
	for i, ep := range s.Epochs {
		switch {
		case ep.N <= 0:
			return fmt.Errorf("synth: epoch %d has size %d, want > 0", i, ep.N)
		case ep.TopicShift < 0 || ep.URLShift < 0:
			return fmt.Errorf("synth: epoch %d has negative shift", i)
		case ep.Decay < 0 || ep.Decay >= 1:
			return fmt.Errorf("synth: epoch %d decay %v outside [0,1)", i, ep.Decay)
		}
	}
	return nil
}

// Traffic renders a drift schedule over a base world into an addressable
// stream of image-modality points: Point(id) is a pure function of the
// schedule, so serving infrastructure can derive any point on demand (the
// same contract serve.DerivePoint gives static traffic). Safe for
// concurrent use after construction.
type Traffic struct {
	task   *Task
	sched  DriftSchedule
	worlds []*World // per-epoch shifted worlds; may alias when an epoch shifts nothing
	starts []int    // cumulative epoch start offsets
}

// NewTraffic builds the per-epoch worlds for sched over base. The task is
// calibrated against the base world if it has not been already, so labels
// across all epochs share one threshold.
func NewTraffic(base *World, task *Task, sched DriftSchedule) (*Traffic, error) {
	if err := sched.validate(); err != nil {
		return nil, err
	}
	if !task.calibrated {
		if err := task.Calibrate(base, 40000, sched.Seed^0x5ca1ab1e); err != nil {
			return nil, err
		}
	}
	t := &Traffic{task: task, sched: sched}
	t.worlds = make([]*World, len(sched.Epochs))
	t.starts = make([]int, len(sched.Epochs))
	prev := base
	off := 0
	for i, ep := range sched.Epochs {
		t.starts[i] = off
		off += ep.N
		if ep.TopicShift == 0 && ep.URLShift == 0 {
			t.worlds[i] = prev
			continue
		}
		// Shifts compound epoch over epoch: each changepoint moves the
		// priors relative to where the last one left them.
		rng := xrand.New(int64(xrand.Mix(uint64(sched.Seed) ^ uint64(i+1)<<40)))
		w := *prev
		if ep.TopicShift > 0 {
			w.topicPopImage = drift(rng, prev.topicPopImage, ep.TopicShift)
		}
		if ep.URLShift > 0 {
			w.urlPopImage = drift(rng, prev.urlPopImage, ep.URLShift)
		}
		t.worlds[i] = &w
		prev = &w
	}
	return t, nil
}

// Task returns the (calibrated) task labels derive from.
func (t *Traffic) Task() *Task { return t.task }

// Total returns the traffic size.
func (t *Traffic) Total() int { return t.sched.Total() }

// EpochOf returns the epoch index a global traffic ordinal falls in; IDs at
// or past the end stay in the final epoch (the last regime persists).
func (t *Traffic) EpochOf(id int) int {
	for i := len(t.starts) - 1; i > 0; i-- {
		if id >= t.starts[i] {
			return i
		}
	}
	return 0
}

// WorldAt returns the shifted world of one epoch.
func (t *Traffic) WorldAt(epoch int) *World { return t.worlds[epoch] }

// Point renders traffic ordinal id: entity sampled from its epoch's shifted
// prior, labeled against the true entity, then decayed per the epoch's
// fidelity. The entity is the point's own, so it is decayed in place once
// Label has read it, and one pooled generator serves both draws: reseeded to
// the "synth.decay" channel, it draws the stream DecayPoints would. Point
// seeds are PointSeed's, as everywhere, so featurestore caching by ID stays
// sound.
func (t *Traffic) Point(id int) *Point {
	ep := t.EpochOf(id)
	w := t.worlds[ep]
	seed := PointSeed(t.sched.Seed, id)
	rng := xrand.Get(int64(seed))
	defer xrand.Put(rng)
	e := w.SampleEntity(rng, Image, id)
	p := &Point{
		ID:       id,
		Entity:   e,
		Modality: Image,
		Seed:     seed,
		// Risk loadings are epoch-invariant, so labeling against the
		// shifted world equals labeling against the base world.
		Label: t.task.Label(w, e),
	}
	if d := t.sched.Epochs[ep].Decay; d > 0 {
		rng.Seed(decaySeed(seed))
		decayInPlace(rng, w, e, d)
	}
	return p
}

// Window returns traffic ordinals [start, start+n).
func (t *Traffic) Window(start, n int) []*Point {
	pts := make([]*Point, n)
	for i := range pts {
		pts[i] = t.Point(start + i)
	}
	return pts
}

// FreshDataset samples a full retraining dataset from one epoch's regime:
// corpora drawn from the shifted priors, labels from the true entities, and
// the epoch's fidelity decay applied to every corpus — what re-collecting
// the organization's data mid-drift would yield. cfg.Seed should differ per
// retraining attempt so corpora are fresh draws.
func (t *Traffic) FreshDataset(epoch int, cfg DatasetConfig) (*Dataset, error) {
	if epoch < 0 || epoch >= len(t.worlds) {
		return nil, fmt.Errorf("synth: epoch %d outside schedule (%d epochs)", epoch, len(t.worlds))
	}
	w := t.worlds[epoch]
	ds, err := BuildDataset(w, t.task, cfg)
	if err != nil {
		return nil, err
	}
	if d := t.sched.Epochs[epoch].Decay; d > 0 {
		DecayPoints(ds.LabeledText, w, d)
		DecayPoints(ds.UnlabeledImage, w, d)
		DecayPoints(ds.HandLabelPool, w, d)
		DecayPoints(ds.TestImage, w, d)
	}
	return ds, nil
}

// DecayPoints applies fidelity decay to each point's observed entity (labels,
// already assigned from the true entities, are untouched). Each point gets a
// decayed copy, because a dataset's entities may be shared; the original
// entity is never mutated. The decay stream derives from each point's own
// seed, so it is independent of slice order and identical across replays.
func DecayPoints(pts []*Point, w *World, decay float64) {
	if decay <= 0 {
		return
	}
	rng := xrand.Get(0)
	defer xrand.Put(rng)
	for _, p := range pts {
		rng.Seed(decaySeed(p.Seed))
		p.Entity = decayEntity(rng, w, p.Entity, decay)
	}
}

// decaySeed is the seed of the dedicated observation channel for fidelity
// decay.
func decaySeed(pointSeed uint64) int64 {
	return int64(xrand.HashString(pointSeed, "synth.decay"))
}

// decayEntity returns a degraded copy of e (see decayInPlace). The true
// entity is never mutated.
func decayEntity(rng *rand.Rand, w *World, e *Entity, decay float64) *Entity {
	d := *e
	d.Objects = append([]int(nil), e.Objects...)
	d.Keywords = append([]int(nil), e.Keywords...)
	decayInPlace(rng, w, &d, decay)
	return &d
}

// decayInPlace degrades e: each latent attribute is independently misread
// with probability decay, and truncated lists keep their first half.
func decayInPlace(rng *rand.Rand, w *World, e *Entity, decay float64) {
	if rng.Float64() < decay {
		e.Topic = rng.Intn(w.cfg.NumTopics)
	}
	if rng.Float64() < decay && len(e.Objects) > 1 {
		e.Objects = e.Objects[:(len(e.Objects)+1)/2]
	}
	if rng.Float64() < decay {
		e.URLGroup = rng.Intn(w.cfg.NumURLGroups)
	}
	if rng.Float64() < decay && len(e.Keywords) > 1 {
		e.Keywords = e.Keywords[:(len(e.Keywords)+1)/2]
	}
}

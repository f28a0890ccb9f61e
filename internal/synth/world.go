// Package synth generates the synthetic multi-modal corpora that stand in
// for the paper's (closed) Google production data.
//
// The design principle is a latent-world model: every data point is a noisy,
// partial *rendering* of a hidden entity (topic, objects present, the posting
// user, linked URL, keywords). Different data modalities render the same kind
// of hidden entity through different observation channels with different
// noise, which produces the paper's central phenomena by construction:
//
//   - the modality gap: raw text and image renderings share no direct link;
//   - the common feature space: organizational resources (internal/resource)
//     recover (noisy views of) the shared latent attributes from either
//     modality;
//   - covariate shift between modalities: the image corpus samples entities
//     from a drifted prior, so a model fit on text features transfers
//     imperfectly (paper §6.6);
//   - class imbalance: task labels threshold a latent risk score, calibrated
//     to the paper's Table 1 positive rates.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Modality identifies a data modality.
type Modality string

// The modalities exercised in the paper's evaluation: text is the old
// (labeled) modality, image the new one; video is used by the motivating
// example and is rendered as a bundle of image frames.
const (
	Text  Modality = "text"
	Image Modality = "image"
	Video Modality = "video"
)

// Config parametrizes a World.
type Config struct {
	Seed         int64
	NumTopics    int // latent content topics (topic-model services recover these)
	NumObjects   int // latent objects (object-detection services recover these)
	NumUsers     int // posting users (aggregate statistics attach to these)
	NumURLGroups int // linked-URL clusters (URL services attach to these)
	NumKeywords  int // keyword vocabulary (keyword services recover these)
	EmbeddingDim int // dimensionality of the "pre-trained" image embedding
	// TopicDrift shifts the topic popularity prior used when sampling
	// entities for the new (image) modality, creating covariate shift
	// between the modalities. 0 disables the shift; the evaluation uses a
	// moderate value.
	TopicDrift float64
}

// DefaultConfig returns the configuration used by the experiment suite.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		NumTopics:    24,
		NumObjects:   40,
		NumUsers:     1500,
		NumURLGroups: 60,
		NumKeywords:  80,
		EmbeddingDim: 16,
		TopicDrift:   0.5,
	}
}

func (c Config) validate() error {
	switch {
	case c.NumTopics <= 1:
		return fmt.Errorf("synth: NumTopics must be > 1, got %d", c.NumTopics)
	case c.NumObjects <= 1:
		return fmt.Errorf("synth: NumObjects must be > 1, got %d", c.NumObjects)
	case c.NumUsers <= 0:
		return fmt.Errorf("synth: NumUsers must be > 0, got %d", c.NumUsers)
	case c.NumURLGroups <= 0:
		return fmt.Errorf("synth: NumURLGroups must be > 0, got %d", c.NumURLGroups)
	case c.NumKeywords <= 0:
		return fmt.Errorf("synth: NumKeywords must be > 0, got %d", c.NumKeywords)
	case c.EmbeddingDim <= 0:
		return fmt.Errorf("synth: EmbeddingDim must be > 0, got %d", c.EmbeddingDim)
	}
	return nil
}

// World holds the latent structure shared by all data points: per-attribute
// risk loadings (how predictive each latent value is of "policy violating"
// content) and latent embedding directions used to render the pre-trained
// image embedding.
type World struct {
	cfg Config

	topicRisk   []float64 // in [0,1], loading of each topic on the risk score
	objectRisk  []float64
	userBadness []float64 // per-user propensity to post violating content
	urlRisk     []float64
	keywordRisk []float64

	topicPopText  []float64 // topic sampling prior for the old modality
	topicPopImage []float64 // drifted prior for the new modality

	urlPopText  []float64 // URL-group prior for the old modality
	urlPopImage []float64 // drifted prior for the new modality (new content
	// attracts a different link ecosystem)

	topicEmb  [][]float64 // latent embedding direction per topic
	objectEmb [][]float64

	userReports []float64 // aggregate statistic: historical reports per user
	urlShares   []float64 // aggregate statistic: shares per URL group
}

// NewWorld builds a world from cfg. The same (cfg, Seed) always produces the
// same world.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{cfg: cfg}

	w.topicRisk = riskLoadings(rng, cfg.NumTopics, 0.25)
	w.objectRisk = riskLoadings(rng, cfg.NumObjects, 0.1)
	w.urlRisk = riskLoadings(rng, cfg.NumURLGroups, 0.25)
	w.keywordRisk = riskLoadings(rng, cfg.NumKeywords, 0.15)

	w.userBadness = make([]float64, cfg.NumUsers)
	w.userReports = make([]float64, cfg.NumUsers)
	for i := range w.userBadness {
		// Most users are benign; a small tail is risky.
		b := rng.Float64()
		b = b * b * b
		w.userBadness[i] = b
		// Reports are a noisy aggregate of badness: an organizational
		// statistic another team has accumulated.
		w.userReports[i] = math.Max(0, b*20+rng.NormFloat64()*1.5)
	}

	w.urlShares = make([]float64, cfg.NumURLGroups)
	for i := range w.urlShares {
		w.urlShares[i] = math.Max(0, rng.ExpFloat64()*10*(0.5+w.urlRisk[i]))
	}

	// Risky topics are unpopular (violating content is a small corner of
	// the platform); without this, the task threshold would slice deep
	// into the risky modes and no feature value could be precise.
	w.topicPopText = popularity(rng, cfg.NumTopics)
	for i := range w.topicPopText {
		w.topicPopText[i] *= 1 - 0.92*w.topicRisk[i]*w.topicRisk[i]
	}
	renormalize(w.topicPopText)
	w.topicPopImage = drift(rng, w.topicPopText, cfg.TopicDrift)

	// URL groups follow the same pattern: risky link destinations are
	// unpopular, and the new modality's link ecosystem is drifted.
	w.urlPopText = popularity(rng, cfg.NumURLGroups)
	for i := range w.urlPopText {
		w.urlPopText[i] *= 1 - 0.92*w.urlRisk[i]*w.urlRisk[i]
	}
	renormalize(w.urlPopText)
	w.urlPopImage = drift(rng, w.urlPopText, cfg.TopicDrift)

	w.topicEmb = randomDirections(rng, cfg.NumTopics, cfg.EmbeddingDim)
	w.objectEmb = randomDirections(rng, cfg.NumObjects, cfg.EmbeddingDim)
	return w, nil
}

// MustWorld is NewWorld that panics on error; for tests and examples.
func MustWorld(cfg Config) *World {
	w, err := NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// riskLoadings draws per-value risk loadings: a small fraction of values
// are strongly risky (a violation mode on their own), a similar fraction
// moderately risky (positive only in combination), and the rest near zero —
// matching how only a few topics or objects indicate a policy violation.
func riskLoadings(rng *rand.Rand, n int, riskyFrac float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch u := rng.Float64(); {
		case u < riskyFrac/2:
			out[i] = 0.75 + 0.25*rng.Float64() // strong mode
		case u < riskyFrac:
			out[i] = 0.35 + 0.25*rng.Float64() // borderline contributor
		default:
			out[i] = 0.12 * rng.Float64()
		}
	}
	return out
}

func renormalize(p []float64) {
	var sum float64
	for _, v := range p {
		sum += v
	}
	for i := range p {
		p[i] /= sum
	}
}

// popularity draws a normalized power-law-ish popularity vector.
func popularity(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		out[i] = rng.ExpFloat64() + 0.05
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// drift reweights a distribution by random multiplicative noise of magnitude
// amount, renormalizing. amount 0 returns a copy.
func drift(rng *rand.Rand, p []float64, amount float64) []float64 {
	out := make([]float64, len(p))
	var sum float64
	for i, v := range p {
		out[i] = v * math.Exp(amount*rng.NormFloat64())
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func randomDirections(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		var norm float64
		for j := range v {
			v[j] = rng.NormFloat64()
			norm += v[j] * v[j]
		}
		norm = math.Sqrt(norm)
		for j := range v {
			v[j] /= norm
		}
		out[i] = v
	}
	return out
}

// Entity is one hidden content entity. Every data point renders exactly one
// entity; entities are never shared between the text and image corpora
// (there is no direct link between modalities — the paper's modality gap).
type Entity struct {
	ID       int
	Topic    int
	Objects  []int
	User     int
	URLGroup int
	Keywords []int
	// Eps is idiosyncratic risk not explained by any observable latent
	// attribute. Tasks weight it differently; tasks with large Eps weight
	// are intrinsically hard for any feature-based model.
	Eps float64
}

// SampleEntity draws an entity from the world prior for the given modality
// (the image prior is drifted; see Config.TopicDrift).
func (w *World) SampleEntity(rng *rand.Rand, m Modality, id int) *Entity {
	e := new(Entity)
	w.sampleInto(e, rng, m, id)
	return e
}

// sampleInto is SampleEntity overwriting e, whose Objects and Keywords
// arrays it refills: the same draws, without a new entity. Each list is sized
// to its drawn length before it fills, so a fresh one is one allocation.
func (w *World) sampleInto(e *Entity, rng *rand.Rand, m Modality, id int) {
	pop := w.topicPopText
	if m == Image || m == Video {
		pop = w.topicPopImage
	}
	urlPop := w.urlPopText
	if m == Image || m == Video {
		urlPop = w.urlPopImage
	}
	*e = Entity{
		ID:       id,
		Topic:    sampleIndex(rng, pop),
		Objects:  e.Objects[:0],
		User:     rng.Intn(w.cfg.NumUsers),
		URLGroup: sampleIndex(rng, urlPop),
		Keywords: e.Keywords[:0],
		Eps:      rng.NormFloat64(),
	}
	// Objects co-occur with the topic: half drawn from a topic-conditioned
	// block, half uniform.
	nObj := 1 + rng.Intn(3)
	e.Objects = slices.Grow(e.Objects, nObj)
	for len(e.Objects) < nObj {
		var o int
		if rng.Float64() < 0.5 {
			o = (e.Topic*3 + rng.Intn(6)) % w.cfg.NumObjects
		} else {
			o = rng.Intn(w.cfg.NumObjects)
		}
		if !containsInt(e.Objects, o) {
			e.Objects = append(e.Objects, o)
		}
	}
	sort.Ints(e.Objects)
	nKw := 1 + rng.Intn(4)
	e.Keywords = slices.Grow(e.Keywords, nKw)
	for len(e.Keywords) < nKw {
		var k int
		if rng.Float64() < 0.5 {
			k = (e.Topic*4 + rng.Intn(8)) % w.cfg.NumKeywords
		} else {
			k = rng.Intn(w.cfg.NumKeywords)
		}
		if !containsInt(e.Keywords, k) {
			e.Keywords = append(e.Keywords, k)
		}
	}
	sort.Ints(e.Keywords)
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func sampleIndex(rng *rand.Rand, p []float64) int {
	u := rng.Float64()
	var acc float64
	for i, v := range p {
		acc += v
		if u <= acc {
			return i
		}
	}
	return len(p) - 1
}

// Risk loadings accessors, used by tasks to score entities and by tests to
// verify calibration.

// TopicRisk returns the risk loading of topic t.
func (w *World) TopicRisk(t int) float64 { return w.topicRisk[t] }

// UserBadness returns the latent badness of user u.
func (w *World) UserBadness(u int) float64 { return w.userBadness[u] }

// URLRisk returns the risk loading of URL group g.
func (w *World) URLRisk(g int) float64 { return w.urlRisk[g] }

// KeywordRisk returns the risk loading of keyword k.
func (w *World) KeywordRisk(k int) float64 { return w.keywordRisk[k] }

// UserReports returns the aggregate report count statistic for user u.
func (w *World) UserReports(u int) float64 { return w.userReports[u] }

// URLShares returns the aggregate share count statistic for URL group g.
func (w *World) URLShares(g int) float64 { return w.urlShares[g] }

// TopicPopularity returns (a copy of) the topic sampling prior of the given
// modality — what a production topic classifier's output prior looks like.
func (w *World) TopicPopularity(m Modality) []float64 {
	src := w.topicPopText
	if m == Image || m == Video {
		src = w.topicPopImage
	}
	return append([]float64(nil), src...)
}

// URLPopularity returns (a copy of) the URL-group prior of the given
// modality.
func (w *World) URLPopularity(m Modality) []float64 {
	src := w.urlPopText
	if m == Image || m == Video {
		src = w.urlPopImage
	}
	return append([]float64(nil), src...)
}

// TopicEmbedding returns the latent embedding direction of topic t.
func (w *World) TopicEmbedding(t int) []float64 { return w.topicEmb[t] }

// ObjectEmbedding returns the latent embedding direction of object o.
func (w *World) ObjectEmbedding(o int) []float64 { return w.objectEmb[o] }

// maxObjectRisk returns the largest risk loading among the entity's objects.
func (w *World) maxObjectRisk(e *Entity) float64 {
	var m float64
	for _, o := range e.Objects {
		if r := w.objectRisk[o]; r > m {
			m = r
		}
	}
	return m
}

// meanKeywordRisk returns the mean risk loading of the entity's keywords.
func (w *World) meanKeywordRisk(e *Entity) float64 {
	if len(e.Keywords) == 0 {
		return 0
	}
	var s float64
	for _, k := range e.Keywords {
		s += w.keywordRisk[k]
	}
	return s / float64(len(e.Keywords))
}

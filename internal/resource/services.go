package resource

import (
	"fmt"
	"math"
	"math/rand"

	"crossmodal/internal/feature"
	"crossmodal/internal/synth"
)

// textImage is the modality support set of a cross-modal service. Video is
// always handled by the library via frame splitting, so services only ever
// declare Text and/or Image support.
var textImage = map[synth.Modality]bool{synth.Text: true, synth.Image: true}

var textOnly = map[synth.Modality]bool{synth.Text: true}

var imageOnly = map[synth.Modality]bool{synth.Image: true}

// baseService carries the fields shared by all concrete services.
type baseService struct {
	def      feature.Def
	supports map[synth.Modality]bool
	params   map[synth.Modality]ObsParams
}

func (s *baseService) Def() feature.Def { return s.def }

func (s *baseService) Supports(m synth.Modality) bool { return s.supports[m] }

func (s *baseService) obs(m synth.Modality) ObsParams { return s.params[m] }

// CategoryService observes one latent categorical attribute (topic, URL
// group, setting, ...). With probability Fidelity it reports the true value;
// otherwise it reports a random other value. A model-based service in the
// paper's taxonomy.
type CategoryService struct {
	baseService
	n       int
	names   categoryNames
	extract func(*synth.Entity) int
	// errorDist, when set, draws misclassification targets from the
	// observed modality's distribution instead of uniformly. Production
	// classifiers are biased toward the prior of the traffic they run
	// on, so errors land on locally popular values — which keeps
	// observations of *rare* values precise.
	errorDist map[synth.Modality][]float64
}

// NewCategoryService builds a categorical service over n values named
// "<prefix><i>"; extract maps an entity to its true value index.
func NewCategoryService(def feature.Def, n int, prefix string, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, extract func(*synth.Entity) int) *CategoryService {
	def.Kind = feature.Categorical
	return &CategoryService{baseService{def, supports, params}, n, newCategoryNames(prefix, n), extract, nil}
}

// categoryNames is a service's value vocabulary "<prefix><i>" for i in
// [0, n), formatted once at construction so Observe indexes a table instead
// of formatting a string per observation.
type categoryNames struct {
	prefix string
	table  []string
}

func newCategoryNames(prefix string, n int) categoryNames {
	table := make([]string, max(n, 0))
	for i := range table {
		table[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return categoryNames{prefix, table}
}

// name returns "<prefix><i>"; an index outside the table (an extract function
// that strays past n) is formatted on the spot, as every index once was.
func (c categoryNames) name(i int) string {
	if i >= 0 && i < len(c.table) {
		return c.table[i]
	}
	return fmt.Sprintf("%s%d", c.prefix, i)
}

// WithErrorDists sets per-modality misclassification target distributions
// (each of length n) and returns the service for chaining.
func (s *CategoryService) WithErrorDists(dists map[synth.Modality][]float64) *CategoryService {
	s.errorDist = dists
	return s
}

// sampleIndex draws an index from a normalized distribution.
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

// Observe implements Resource.
func (s *CategoryService) Observe(e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value {
	p := s.obs(m)
	if rng.Float64() < p.Dropout {
		return feature.MissingValue()
	}
	idx := s.extract(e)
	if rng.Float64() >= p.Fidelity && s.n > 1 {
		// Misclassification. With ConfusionShift set, errors are
		// systematic (the channel consistently confuses a value with a
		// fixed neighbor) rather than uniform — systematic confusion is
		// what makes a model trained on one modality's channel transfer
		// poorly to another's (paper §6.6: "the input distribution is
		// not identical across modalities").
		switch {
		case p.ConfusionShift > 0 && rng.Float64() < 0.5:
			idx = (idx + p.ConfusionShift) % s.n
		case s.errorDist[m] != nil:
			idx = sampleIndex(rng, s.errorDist[m])
		default:
			idx = (idx + 1 + rng.Intn(s.n-1)) % s.n
		}
	}
	return feature.CategoricalValue(s.names.name(idx))
}

// SetService observes a latent index set (objects present, keywords) as a
// multivalent categorical feature: each true element is detected with
// probability Fidelity, and with probability FalsePositive one spurious
// element is added.
type SetService struct {
	baseService
	n       int
	names   categoryNames
	extract func(*synth.Entity) []int
}

// NewSetService builds a multivalent categorical service over n values named
// "<prefix><i>".
func NewSetService(def feature.Def, n int, prefix string, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, extract func(*synth.Entity) []int) *SetService {
	def.Kind = feature.Categorical
	return &SetService{baseService{def, supports, params}, n, newCategoryNames(prefix, n), extract}
}

// Observe implements Resource.
func (s *SetService) Observe(e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value {
	p := s.obs(m)
	if rng.Float64() < p.Dropout {
		return feature.MissingValue()
	}
	var cats []string
	for _, idx := range s.extract(e) {
		if rng.Float64() < p.Fidelity {
			cats = append(cats, s.names.name(idx))
		}
	}
	if rng.Float64() < p.FalsePositive {
		cats = append(cats, s.names.name(rng.Intn(s.n)))
	}
	return feature.CategoricalValue(cats...)
}

// BucketService observes a latent scalar quantized into named buckets, with
// Gaussian noise applied before quantization. Used for score-like service
// outputs ("risk: low/medium/high").
type BucketService struct {
	baseService
	cuts    []float64
	names   []string
	extract func(*synth.World, *synth.Entity) float64
	world   *synth.World
}

// NewBucketService builds a bucketing service: len(names) == len(cuts)+1;
// value v falls in bucket i where cuts[i-1] <= v < cuts[i].
func NewBucketService(def feature.Def, world *synth.World, cuts []float64, names []string, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, extract func(*synth.World, *synth.Entity) float64) (*BucketService, error) {
	if len(names) != len(cuts)+1 {
		return nil, fmt.Errorf("resource: bucket service %s wants %d names for %d cuts", def.Name, len(cuts)+1, len(cuts))
	}
	def.Kind = feature.Categorical
	return &BucketService{baseService{def, supports, params}, cuts, names, extract, world}, nil
}

// Observe implements Resource.
func (s *BucketService) Observe(e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value {
	p := s.obs(m)
	if rng.Float64() < p.Dropout {
		return feature.MissingValue()
	}
	v := s.extract(s.world, e) + rng.NormFloat64()*p.Noise
	i := 0
	for i < len(s.cuts) && v >= s.cuts[i] {
		i++
	}
	return feature.CategoricalValue(s.names[i])
}

// StatService observes an aggregate statistic or other numeric signal
// attached to the entity's metadata (user reports, URL shares). Metadata
// joins are modality-independent, so these channels are typically low noise
// for every modality.
type StatService struct {
	baseService
	extract func(*synth.World, *synth.Entity) float64
	world   *synth.World
}

// NewStatService builds a numeric aggregate-statistic service.
func NewStatService(def feature.Def, world *synth.World, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, extract func(*synth.World, *synth.Entity) float64) *StatService {
	def.Kind = feature.Numeric
	return &StatService{baseService{def, supports, params}, extract, world}
}

// Observe implements Resource.
func (s *StatService) Observe(e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value {
	p := s.obs(m)
	if rng.Float64() < p.Dropout {
		return feature.MissingValue()
	}
	return feature.NumericValue(s.extract(s.world, e) + rng.NormFloat64()*p.Noise)
}

// RuleService is a rule-based resource: a heuristic predicate a team wrote
// (paper §3.1.1), surfaced as a binary categorical feature that is observed
// with modality-dependent reliability.
type RuleService struct {
	baseService
	predicate func(*synth.World, *synth.Entity) bool
	world     *synth.World
}

// NewRuleService builds a rule-based service; the feature takes value
// "fired" or "quiet".
func NewRuleService(def feature.Def, world *synth.World, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, predicate func(*synth.World, *synth.Entity) bool) *RuleService {
	def.Kind = feature.Categorical
	return &RuleService{baseService{def, supports, params}, predicate, world}
}

// Observe implements Resource.
func (s *RuleService) Observe(e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value {
	p := s.obs(m)
	if rng.Float64() < p.Dropout {
		return feature.MissingValue()
	}
	fired := s.predicate(s.world, e)
	if rng.Float64() >= p.Fidelity {
		fired = !fired
	}
	if fired {
		return feature.CategoricalValue("fired")
	}
	return feature.CategoricalValue("quiet")
}

// EmbeddingService renders the "pre-trained image embedding": a dense vector
// encoding the entity's topic and objects plus observation noise. This is
// the raw-modality feature the paper's baseline model trains on, and the
// unstructured feature label propagation exploits (§4.4).
type EmbeddingService struct {
	baseService
	world *synth.World
	noise float64
}

// NewEmbeddingService builds the image-embedding service.
func NewEmbeddingService(def feature.Def, world *synth.World, supports map[synth.Modality]bool, noise float64) *EmbeddingService {
	def.Kind = feature.Embedding
	def.Dim = world.Config().EmbeddingDim
	return &EmbeddingService{baseService{def, supports, nil}, world, noise}
}

// Observe implements Resource.
func (s *EmbeddingService) Observe(e *synth.Entity, _ synth.Modality, rng *rand.Rand) feature.Value {
	dim := s.def.Dim
	vec := make([]float64, dim)
	copy(vec, s.world.TopicEmbedding(e.Topic))
	for i := range vec {
		vec[i] *= 0.8
	}
	for _, o := range e.Objects {
		oe := s.world.ObjectEmbedding(o)
		for i := range vec {
			vec[i] += 0.8 * oe[i] / float64(len(e.Objects))
		}
	}
	for i := range vec {
		vec[i] += rng.NormFloat64() * s.noise
	}
	return feature.EmbeddingValue(vec)
}

// FeatureSets names the service sets of the paper's evaluation (§6.2).
// A: URL-based metadata services; B: keyword-based services; C: topic-model
// services; D: page-content services. ImageSet holds the image-specific
// pre-trained features; TextSet the text-specific ones.
const (
	SetA     = "A"
	SetB     = "B"
	SetC     = "C"
	SetD     = "D"
	ImageSet = "I"
	TextSet  = "T"
)

// ABCD lists the four organizational service sets in order.
var ABCD = []string{SetA, SetB, SetC, SetD}

// StandardLibrary assembles the evaluation's 15 organizational services
// (sets A–D, including one nonservable aggregate statistic; the second
// nonservable feature — the label-propagation score — is appended by the
// curation step), plus image-specific and text-specific features.
func StandardLibrary(w *synth.World) (*Library, error) {
	cfg := w.Config()

	// Metadata-backed channels are reliable for every modality.
	meta := map[synth.Modality]ObsParams{
		synth.Text:  {Fidelity: 0.95, Dropout: 0.02, Noise: 1.0},
		synth.Image: {Fidelity: 0.92, Dropout: 0.04, Noise: 1.2},
	}
	// Content-model channels see text better than images, and their image
	// errors are systematic (e.g. a meme topic consistently mistaken for a
	// neighboring topic).
	content := map[synth.Modality]ObsParams{
		synth.Text:  {Fidelity: 0.88, Dropout: 0.03, FalsePositive: 0.05, Noise: 0.05},
		synth.Image: {Fidelity: 0.78, Dropout: 0.10, FalsePositive: 0.10, Noise: 0.12, ConfusionShift: 1},
	}
	// Vision channels see images better than text; their text errors are
	// systematic.
	vision := map[synth.Modality]ObsParams{
		synth.Text:  {Fidelity: 0.62, Dropout: 0.10, FalsePositive: 0.06, Noise: 0.10, ConfusionShift: 1},
		synth.Image: {Fidelity: 0.85, Dropout: 0.04, FalsePositive: 0.05, Noise: 0.06},
	}
	weak := map[synth.Modality]ObsParams{
		synth.Text:  {Fidelity: 0.6, Dropout: 0.05, Noise: 0.6},
		synth.Image: {Fidelity: 0.55, Dropout: 0.05, Noise: 0.7},
	}

	urlBucket, err := NewBucketService(
		feature.Def{Name: "url_risk", Set: SetA, Servable: true},
		w, []float64{0.2, 0.5}, []string{"low", "medium", "high"},
		textImage, meta,
		func(w *synth.World, e *synth.Entity) float64 { return w.URLRisk(e.URLGroup) })
	if err != nil {
		return nil, err
	}
	userBucket, err := NewBucketService(
		feature.Def{Name: "user_tier", Set: SetD, Servable: true},
		w, []float64{0.05, 0.2, 0.5}, []string{"trusted", "normal", "flagged", "risky"},
		textImage, meta,
		func(w *synth.World, e *synth.Entity) float64 { return w.UserBadness(e.User) })
	if err != nil {
		return nil, err
	}
	sentiment, err := NewBucketService(
		feature.Def{Name: "sentiment", Set: SetC, Servable: true},
		w, []float64{-0.5, 0.5}, []string{"negative", "neutral", "positive"},
		textImage, weak,
		func(_ *synth.World, e *synth.Entity) float64 { return math.Tanh(e.Eps) })
	if err != nil {
		return nil, err
	}

	// Topic classifiers' misclassifications follow the output prior of the
	// traffic they run on, per modality.
	topicPriors := map[synth.Modality][]float64{
		synth.Text:  w.TopicPopularity(synth.Text),
		synth.Image: w.TopicPopularity(synth.Image),
	}
	coarsePriors := map[synth.Modality][]float64{}
	for m, prior := range topicPriors {
		coarse := make([]float64, (cfg.NumTopics+3)/4)
		for t, p := range prior {
			coarse[t/4] += p
		}
		coarsePriors[m] = coarse
	}

	urlPriors := map[synth.Modality][]float64{
		synth.Text:  w.URLPopularity(synth.Text),
		synth.Image: w.URLPopularity(synth.Image),
	}

	resources := []Resource{
		// --- Set A: URL-based services (3 features) ---
		NewCategoryService(
			feature.Def{Name: "url_category", Set: SetA, Servable: true},
			cfg.NumURLGroups, "url", textImage, meta,
			func(e *synth.Entity) int { return e.URLGroup }).WithErrorDists(urlPriors),
		NewStatService(
			feature.Def{Name: "url_shares", Set: SetA, Servable: true},
			w, textImage, meta,
			func(w *synth.World, e *synth.Entity) float64 { return w.URLShares(e.URLGroup) }),
		urlBucket,

		// --- Set B: keyword-based services (2 features) ---
		NewSetService(
			feature.Def{Name: "keywords", Set: SetB, Servable: true},
			cfg.NumKeywords, "kw", textImage, content,
			func(e *synth.Entity) []int { return e.Keywords }),
		NewRuleService(
			feature.Def{Name: "kw_spam_rule", Set: SetB, Servable: true},
			w, textImage, content,
			func(w *synth.World, e *synth.Entity) bool {
				for _, k := range e.Keywords {
					if w.KeywordRisk(k) > 0.6 {
						return true
					}
				}
				return false
			}),

		// --- Set C: topic-model-based services (5 features) ---
		// The flagship topic model: its modality gap is a fidelity and
		// dropout gap plus prior-biased errors, without systematic shift —
		// rare (risky) topics stay recognizable on images, which the
		// mined LFs depend on.
		NewCategoryService(
			feature.Def{Name: "topic", Set: SetC, Servable: true},
			cfg.NumTopics, "t", textImage,
			map[synth.Modality]ObsParams{
				synth.Text:  {Fidelity: 0.85, Dropout: 0.04},
				synth.Image: {Fidelity: 0.85, Dropout: 0.06},
			},
			func(e *synth.Entity) int { return e.Topic }).WithErrorDists(topicPriors),
		NewCategoryService(
			feature.Def{Name: "topic_coarse", Set: SetC, Servable: true},
			(cfg.NumTopics+3)/4, "tc", textImage, content,
			func(e *synth.Entity) int { return e.Topic / 4 }).WithErrorDists(coarsePriors),
		NewSetService(
			feature.Def{Name: "objects", Set: SetC, Servable: true},
			cfg.NumObjects, "obj", textImage, vision,
			func(e *synth.Entity) []int { return e.Objects }),
		sentiment,
		NewCategoryService(
			feature.Def{Name: "setting", Set: SetC, Servable: true},
			8, "set", textImage, vision,
			func(e *synth.Entity) int { return e.Objects[0] % 8 }),

		// --- Set D: page-content-based services (5 features) ---
		NewCategoryService(
			feature.Def{Name: "page_category", Set: SetD, Servable: true},
			cfg.NumTopics, "t", textImage,
			map[synth.Modality]ObsParams{
				synth.Text:  {Fidelity: 0.72, Dropout: 0.08},
				synth.Image: {Fidelity: 0.66, Dropout: 0.14, ConfusionShift: 2},
			},
			func(e *synth.Entity) int { return e.Topic }).WithErrorDists(topicPriors),
		NewSetService(
			feature.Def{Name: "page_entities", Set: SetD, Servable: true},
			cfg.NumObjects, "obj", textImage,
			map[synth.Modality]ObsParams{
				synth.Text:  {Fidelity: 0.6, Dropout: 0.08, FalsePositive: 0.1},
				synth.Image: {Fidelity: 0.5, Dropout: 0.12, FalsePositive: 0.1},
			},
			func(e *synth.Entity) []int { return e.Objects }),
		NewStatService(
			feature.Def{Name: "page_quality", Set: SetD, Servable: true},
			w, textImage, weak,
			func(w *synth.World, e *synth.Entity) float64 { return 1 - w.URLRisk(e.URLGroup) }),
		userBucket,
		// The nonservable aggregate: joining live traffic against the
		// reports store is too expensive at serving time (paper §4.1).
		NewStatService(
			feature.Def{Name: "user_reports", Set: SetD, Servable: false},
			w, textImage,
			map[synth.Modality]ObsParams{
				synth.Text:  {Fidelity: 1, Noise: 0.4},
				synth.Image: {Fidelity: 1, Noise: 0.4},
			},
			func(w *synth.World, e *synth.Entity) float64 { return w.UserReports(e.User) }),

		// --- Image-specific pre-trained features (3) ---
		NewEmbeddingService(
			feature.Def{Name: "img_embedding", Set: ImageSet, Servable: true},
			w, imageOnly, 0.1),
		NewStatService(
			feature.Def{Name: "img_quality", Set: ImageSet, Servable: true},
			w, imageOnly,
			map[synth.Modality]ObsParams{synth.Image: {Fidelity: 1, Noise: 1.0}},
			func(_ *synth.World, e *synth.Entity) float64 { return 0.1*e.Eps + 1 }),
		NewSetService(
			feature.Def{Name: "img_ocr", Set: ImageSet, Servable: true},
			cfg.NumKeywords, "kw", imageOnly,
			map[synth.Modality]ObsParams{synth.Image: {Fidelity: 0.35, Dropout: 0.2, FalsePositive: 0.1}},
			func(e *synth.Entity) []int { return e.Keywords }),

		// --- Text-specific features (3) ---
		// A mature text-toxicity scorer: strong within text, absent for
		// images. Text models lean on it, which is precisely why they
		// transfer poorly to the new modality (§6.6).
		NewStatService(
			feature.Def{Name: "text_toxicity", Set: TextSet, Servable: true},
			w, textOnly,
			map[synth.Modality]ObsParams{synth.Text: {Fidelity: 1, Noise: 0.1}},
			func(w *synth.World, e *synth.Entity) float64 {
				var kw float64
				for _, k := range e.Keywords {
					kw += w.KeywordRisk(k)
				}
				kw /= float64(len(e.Keywords))
				return 2*kw + 0.5*math.Tanh(e.Eps)
			}),
		NewStatService(
			feature.Def{Name: "text_wordcount", Set: TextSet, Servable: true},
			w, textOnly,
			map[synth.Modality]ObsParams{synth.Text: {Fidelity: 1, Noise: 3}},
			func(_ *synth.World, e *synth.Entity) float64 { return float64(10 + 5*len(e.Keywords)) }),
		NewRuleService(
			feature.Def{Name: "text_emoji", Set: TextSet, Servable: true},
			w, textOnly,
			map[synth.Modality]ObsParams{synth.Text: {Fidelity: 0.9, Dropout: 0.02}},
			func(_ *synth.World, e *synth.Entity) bool { return e.Keywords[0]%3 == 0 }),
	}
	return NewLibrary(w, resources...)
}

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

// channelOf is the slot a service keeps modality m's settings in — text,
// image, and a zero slot for every modality a service cannot declare — so an
// observation indexes an array resolved at construction, not a map.
func channelOf(m synth.Modality) int {
	switch m {
	case synth.Text:
		return 0
	case synth.Image:
		return 1
	}
	return 2
}

// baseService carries the fields shared by all concrete services.
type baseService struct {
	def      feature.Def
	supports [3]bool
	params   [3]ObsParams
}

func newBase(def feature.Def, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams) baseService {
	return baseService{def, [3]bool{supports[synth.Text], supports[synth.Image]}, [3]ObsParams{params[synth.Text], params[synth.Image]}}
}

func (s *baseService) Def() feature.Def { return s.def }

func (s *baseService) Supports(m synth.Modality) bool { return s.supports[channelOf(m)] }

// vocab is a categorical service's value table as intern IDs, interned once
// at construction: writing a value copies an ID out of the table and never
// touches the interner.
type vocab struct {
	prefix string // of a "<prefix><i>" table, for a value past its end
	ids    []uint32
}

func newVocab(prefix string, names []string) vocab {
	ids := make([]uint32, len(names))
	for k, name := range names {
		ids[k] = feature.InternID(name)
	}
	return vocab{prefix, ids}
}

// newCategoryNames is the vocabulary "<prefix><i>" for i in [0, n), formatted
// and interned once so Observe indexes a table instead of formatting a string
// per observation.
func newCategoryNames(prefix string, n int) vocab {
	table := make([]string, max(n, 0))
	for i := range table {
		table[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return newVocab(prefix, table)
}

// at returns value k as a one-element list of its intern ID: a sub-slice of
// the table, or, outside it (an extract function that strays past n),
// "<prefix><k>" formatted and interned on the spot, as every index once was.
func (v vocab) at(k int) []uint32 {
	if k >= 0 && k < len(v.ids) {
		return v.ids[k : k+1]
	}
	return []uint32{feature.InternID(fmt.Sprintf("%s%d", v.prefix, k))}
}

// write stores the single value k at position i of dst.
func (v vocab) write(dst *feature.Vector, i, k int) {
	must(dst.SetCategoryIDs(i, v.at(k)))
}

// must panics on a write a service's own value fails only past 32-bit windows.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// CategoryService observes one latent categorical attribute (topic, URL
// group, setting, ...). With probability Fidelity it reports the true value;
// otherwise it reports a random other value. A model-based service in the
// paper's taxonomy.
type CategoryService struct {
	baseService
	n       int
	names   vocab
	extract func(*synth.Entity) int
	// errorDist, when set, draws misclassification targets from the
	// observed modality's distribution instead of uniformly. Production
	// classifiers are biased toward the prior of the traffic they run
	// on, so errors land on locally popular values — which keeps
	// observations of *rare* values precise.
	errorDist [3][]float64
}

// NewCategoryService builds a categorical service over n values named
// "<prefix><i>"; extract maps an entity to its true value index.
func NewCategoryService(def feature.Def, n int, prefix string, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, extract func(*synth.Entity) int) *CategoryService {
	def.Kind = feature.Categorical
	return &CategoryService{baseService: newBase(def, supports, params), n: n, names: newCategoryNames(prefix, n), extract: extract}
}

// WithErrorDists sets per-modality misclassification target distributions
// (each of length n) and returns the service for chaining.
func (s *CategoryService) WithErrorDists(dists map[synth.Modality][]float64) *CategoryService {
	s.errorDist = [3][]float64{dists[synth.Text], dists[synth.Image]}
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
func (s *CategoryService) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	ch := channelOf(m)
	p := &s.params[ch]
	if rng.Float64() < p.Dropout {
		return
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
		case s.errorDist[ch] != nil:
			idx = sampleIndex(rng, s.errorDist[ch])
		default:
			idx = (idx + 1 + rng.Intn(s.n-1)) % s.n
		}
	}
	s.names.write(dst, i, idx)
}

// SetService observes a latent index set (objects present, keywords) as a
// multivalent categorical feature: each true element is detected with
// probability Fidelity, and with probability FalsePositive one spurious
// element is added.
type SetService struct {
	baseService
	n       int
	names   vocab
	extract func(*synth.Entity) []int
}

// NewSetService builds a multivalent categorical service over n values named
// "<prefix><i>".
func NewSetService(def feature.Def, n int, prefix string, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, extract func(*synth.Entity) []int) *SetService {
	def.Kind = feature.Categorical
	return &SetService{newBase(def, supports, params), n, newCategoryNames(prefix, n), extract}
}

// Observe implements Resource.
func (s *SetService) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	p := &s.params[channelOf(m)]
	if rng.Float64() < p.Dropout {
		return
	}
	// The detected elements gather on the stack; SetCategoryIDs copies them.
	var idBuf [8]uint32
	ids := idBuf[:0]
	for _, idx := range s.extract(e) {
		if rng.Float64() < p.Fidelity {
			ids = append(ids, s.names.at(idx)...)
		}
	}
	if rng.Float64() < p.FalsePositive {
		ids = append(ids, s.names.at(rng.Intn(s.n))...)
	}
	must(dst.SetCategoryIDs(i, ids))
}

// BucketService observes a latent scalar quantized into named buckets, with
// Gaussian noise applied before quantization. Used for score-like service
// outputs ("risk: low/medium/high").
type BucketService struct {
	baseService
	cuts    []float64
	names   vocab
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
	return &BucketService{newBase(def, supports, params), cuts, newVocab("", names), extract, world}, nil
}

// Observe implements Resource.
func (s *BucketService) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	p := &s.params[channelOf(m)]
	if rng.Float64() < p.Dropout {
		return
	}
	v := s.extract(s.world, e) + float64(rng.NormFloat64()*p.Noise)
	k := 0
	for k < len(s.cuts) && v >= s.cuts[k] {
		k++
	}
	s.names.write(dst, i, k)
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
	return &StatService{newBase(def, supports, params), extract, world}
}

// Observe implements Resource.
func (s *StatService) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	p := &s.params[channelOf(m)]
	if rng.Float64() < p.Dropout {
		return
	}
	dst.SetNum(i, s.extract(s.world, e)+float64(rng.NormFloat64()*p.Noise))
}

// RuleService is a rule-based resource: a heuristic predicate a team wrote
// (paper §3.1.1), surfaced as a binary categorical feature that is observed
// with modality-dependent reliability.
type RuleService struct {
	baseService
	names     vocab // "quiet", "fired"
	predicate func(*synth.World, *synth.Entity) bool
	world     *synth.World
}

// NewRuleService builds a rule-based service; the feature takes value
// "fired" or "quiet".
func NewRuleService(def feature.Def, world *synth.World, supports map[synth.Modality]bool, params map[synth.Modality]ObsParams, predicate func(*synth.World, *synth.Entity) bool) *RuleService {
	def.Kind = feature.Categorical
	return &RuleService{newBase(def, supports, params), newVocab("", []string{"quiet", "fired"}), predicate, world}
}

// Observe implements Resource.
func (s *RuleService) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	p := &s.params[channelOf(m)]
	if rng.Float64() < p.Dropout {
		return
	}
	fired := s.predicate(s.world, e)
	if rng.Float64() >= p.Fidelity {
		fired = !fired
	}
	k := 0
	if fired {
		k = 1
	}
	s.names.write(dst, i, k)
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
	return &EmbeddingService{newBase(def, supports, nil), world, noise}
}

// Observe implements Resource.
func (s *EmbeddingService) Observe(dst *feature.Vector, i int, e *synth.Entity, _ synth.Modality, rng *rand.Rand) {
	// Composed on the stack at the usual dimensions; SetVec copies it.
	var buf [64]float64
	vec := buf[:0]
	for _, x := range s.world.TopicEmbedding(e.Topic)[:s.def.Dim] {
		vec = append(vec, x*0.8)
	}
	for _, o := range e.Objects {
		oe := s.world.ObjectEmbedding(o)
		for k := range vec {
			vec[k] += 0.8 * oe[k] / float64(len(e.Objects))
		}
	}
	for k := range vec {
		vec[k] += float64(rng.NormFloat64() * s.noise)
	}
	must(dst.SetVec(i, vec))
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
			func(_ *synth.World, e *synth.Entity) float64 { return float64(0.1*e.Eps) + 1 }),
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
				return float64(2*kw) + float64(0.5*math.Tanh(e.Eps))
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

// Package feature implements the common, structured feature space that
// bridges data modalities (paper §3).
//
// Organizational resources transform data points of any modality into
// categorical, numeric, or embedding feature values. A Schema describes the
// set of features a pipeline uses; a Vector holds one data point's values
// under a Schema. The package also implements the graph-weight computation of
// paper Algorithm 1 (Jaccard similarity for categorical features, normalized
// distance for numeric features) and one-hot vectorization for model
// training.
package feature

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind classifies a feature's value type.
type Kind int

const (
	// Categorical features hold a (possibly empty) set of category strings.
	// The paper calls these "multivalent categorical" features; most
	// organizational-resource outputs are of this kind.
	Categorical Kind = iota
	// Numeric features hold a single float64 (aggregate statistics,
	// scores, counts).
	Numeric
	// Embedding features hold a fixed-length dense vector (e.g. the
	// pre-trained image embedding). Embeddings are used for model inputs
	// and for label-propagation similarity, but not for itemset mining.
	Embedding
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	case Embedding:
		return "embedding"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Def describes a single feature in a Schema.
type Def struct {
	// Name uniquely identifies the feature within a Schema.
	Name string
	// Kind is the value type.
	Kind Kind
	// Set is the organizational-service set the feature belongs to
	// ("A".."D" in the paper's evaluation). Sets let experiments include
	// or exclude whole families of services.
	Set string
	// Servable reports whether the feature can be computed at inference
	// time. Nonservable features (paper §4.1) may be used to build
	// labeling functions and propagation graphs, but are excluded from
	// discriminative end models.
	Servable bool
	// Dim is the vector length for Embedding features and 0 otherwise.
	Dim int
}

// Schema is an ordered collection of feature definitions.
// The zero value is an empty schema ready for use.
type Schema struct {
	defs  []Def
	index map[string]int
}

// NewSchema builds a schema from defs. It returns an error if two features
// share a name or an embedding feature has a non-positive dimension.
func NewSchema(defs ...Def) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(defs))}
	for _, d := range defs {
		if err := s.add(d); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// statically known schemas.
func MustSchema(defs ...Def) *Schema {
	s, err := NewSchema(defs...)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Schema) add(d Def) error {
	if d.Name == "" {
		return fmt.Errorf("feature: empty feature name")
	}
	if s.index == nil {
		s.index = make(map[string]int)
	}
	if _, dup := s.index[d.Name]; dup {
		return fmt.Errorf("feature: duplicate feature %q", d.Name)
	}
	if d.Kind == Embedding && d.Dim <= 0 {
		return fmt.Errorf("feature: embedding feature %q needs Dim > 0", d.Name)
	}
	if d.Kind != Embedding && d.Dim != 0 {
		return fmt.Errorf("feature: non-embedding feature %q must have Dim == 0", d.Name)
	}
	s.index[d.Name] = len(s.defs)
	s.defs = append(s.defs, d)
	return nil
}

// Len returns the number of features in the schema.
func (s *Schema) Len() int { return len(s.defs) }

// Def returns the i'th feature definition.
func (s *Schema) Def(i int) Def { return s.defs[i] }

// Index returns the position of the named feature and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns all feature names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.defs))
	for i, d := range s.defs {
		out[i] = d.Name
	}
	return out
}

// Project returns a new schema containing only the features for which keep
// returns true, preserving order.
func (s *Schema) Project(keep func(Def) bool) *Schema {
	out := &Schema{index: make(map[string]int)}
	for _, d := range s.defs {
		if keep(d) {
			// add cannot fail: names were unique in the source.
			_ = out.add(d)
		}
	}
	return out
}

// Servable returns the sub-schema of servable features; the end
// discriminative model may only consume these (paper §4.1, §6.4).
func (s *Schema) Servable() *Schema {
	return s.Project(func(d Def) bool { return d.Servable })
}

// Sets returns the sub-schema of features whose Set is one of sets.
// An empty sets list selects nothing.
func (s *Schema) Sets(sets ...string) *Schema {
	want := make(map[string]bool, len(sets))
	for _, set := range sets {
		want[set] = true
	}
	return s.Project(func(d Def) bool { return want[d.Set] })
}

// String renders the schema as "name:kind[set]" terms for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, d := range s.defs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s[%s]", d.Name, d.Kind, d.Set)
		if !d.Servable {
			b.WriteString("(nonservable)")
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Value holds one feature value. Exactly one of the payload fields is
// meaningful, selected by the owning Def's Kind; Missing marks a feature the
// generating service could not compute for this data point (e.g. a
// text-specific service applied to an image).
type Value struct {
	Categories []string  // Categorical payload (a set; order is not significant).
	Num        float64   // Numeric payload.
	Vec        []float64 // Embedding payload.
	Missing    bool

	// catIDs caches Categories as sorted, deduplicated intern IDs; filled
	// when the value enters a Vector (Vector.Set) so the similarity hot
	// path intersects integer sets instead of hashing strings. Categories
	// must not be mutated after Set, or the cache goes stale.
	catIDs []uint32
}

// CategoricalValue returns a present categorical value with the given
// categories.
func CategoricalValue(categories ...string) Value {
	return Value{Categories: categories}
}

// NumericValue returns a present numeric value.
func NumericValue(v float64) Value { return Value{Num: v} }

// EmbeddingValue returns a present embedding value.
func EmbeddingValue(vec []float64) Value { return Value{Vec: vec} }

// MissingValue returns the distinguished missing value.
func MissingValue() Value { return Value{Missing: true} }

// HasCategory reports whether the value contains category c.
func (v Value) HasCategory(c string) bool {
	if v.Missing {
		return false
	}
	for _, got := range v.Categories {
		if got == c {
			return true
		}
	}
	return false
}

// Vector is one data point's feature values under a Schema, indexed in
// schema order.
type Vector struct {
	schema *Schema
	values []Value
	// degraded lists channels whose service calls failed when this vector
	// was featurized through the checked path: their values are Missing not
	// because the resource abstained but because it was unreachable. The
	// annotation is in-memory only (it is not persisted).
	degraded []string
}

// NewVector returns an all-missing vector for schema.
func NewVector(schema *Schema) *Vector {
	return &NewVectors(schema, 1)[0]
}

// Schema returns the vector's schema.
func (v *Vector) Schema() *Schema { return v.schema }

// NewVectors returns n all-missing vectors for schema carved out of two
// allocations (one []Vector, one []Value) instead of two per vector: the
// chunk-granular form the disk store decodes into. Each vector's value
// window is capacity-limited, so vectors never alias one another.
func NewVectors(schema *Schema, n int) []Vector {
	width := schema.Len()
	values := make([]Value, n*width)
	for i := range values {
		values[i].Missing = true
	}
	vecs := make([]Vector, n)
	for r := range vecs {
		vecs[r] = Vector{schema: schema, values: values[r*width : (r+1)*width : (r+1)*width]}
	}
	return vecs
}

// Set assigns the named feature's value. It returns an error if the feature
// does not exist or the value shape does not match the feature kind.
func (v *Vector) Set(name string, val Value) error {
	i, ok := v.schema.Index(name)
	if !ok {
		return fmt.Errorf("feature: unknown feature %q", name)
	}
	return v.SetAt(i, val)
}

// SetAt is Set addressed by schema position: callers that already iterate in
// schema order (featurization, the disk store's decoder) skip the per-value
// name lookup. i must be in [0, Schema().Len()).
func (v *Vector) SetAt(i int, val Value) error {
	if !val.Missing {
		d := &v.schema.defs[i]
		if d.Kind == Embedding && len(val.Vec) != d.Dim {
			return fmt.Errorf("feature: embedding %q wants dim %d, got %d", d.Name, d.Dim, len(val.Vec))
		}
		// Vectorize time is when categorical values are interned: every
		// vector-borne value carries its ID set from here on, so pairwise
		// similarity never touches the strings again.
		if d.Kind == Categorical && val.catIDs == nil {
			val.catIDs = internCategories(val.Categories)
		}
	}
	v.values[i] = val
	return nil
}

// MustSet is Set that panics on error; for construction of statically known
// vectors.
func (v *Vector) MustSet(name string, val Value) {
	if err := v.Set(name, val); err != nil {
		panic(err)
	}
}

// MustSetAt is SetAt that panics on error; for callers whose values are
// kind-correct by construction (a resource filling its own feature, a
// decoder whose column definition was matched against the schema).
func (v *Vector) MustSetAt(i int, val Value) {
	if err := v.SetAt(i, val); err != nil {
		panic(err)
	}
}

// Get returns the named feature's value; missing names yield a missing value.
func (v *Vector) Get(name string) Value {
	i, ok := v.schema.Index(name)
	if !ok {
		return MissingValue()
	}
	return v.values[i]
}

// At returns the value at schema position i.
func (v *Vector) At(i int) Value { return v.values[i] }

// MarkDegraded records channels whose featurization failed (a copy is
// taken). Passing an empty slice clears the annotation.
func (v *Vector) MarkDegraded(channels []string) {
	if len(channels) == 0 {
		v.degraded = nil
		return
	}
	v.degraded = append([]string(nil), channels...)
}

// Degraded returns the channels recorded by MarkDegraded (nil for a fully
// featurized vector). Callers must not mutate the returned slice.
func (v *Vector) Degraded() []string { return v.degraded }

// Reproject copies the vector onto target, carrying over values for features
// that exist in both schemas (matched by name) and leaving the rest missing.
func (v *Vector) Reproject(target *Schema) *Vector {
	out := NewVector(target)
	for i, d := range v.schema.defs {
		if j, ok := target.Index(d.Name); ok {
			out.values[j] = v.values[i]
		}
	}
	return out
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	out := &Vector{schema: v.schema, values: make([]Value, len(v.values))}
	if v.degraded != nil {
		out.degraded = append([]string(nil), v.degraded...)
	}
	for i, val := range v.values {
		cp := val
		if val.Categories != nil {
			cp.Categories = append([]string(nil), val.Categories...)
			// The copy owns its categories and may mutate them, which
			// would stale a shared intern cache; drop it and let Set (or
			// the string fallback) rebuild on demand.
			cp.catIDs = nil
		}
		if val.Vec != nil {
			cp.Vec = append([]float64(nil), val.Vec...)
		}
		out.values[i] = cp
	}
	return out
}

// String renders the non-missing entries as "name=value" pairs.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, d := range v.schema.defs {
		val := v.values[i]
		if val.Missing {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		switch d.Kind {
		case Categorical:
			cats := append([]string(nil), val.Categories...)
			sort.Strings(cats)
			fmt.Fprintf(&b, "%s=[%s]", d.Name, strings.Join(cats, " "))
		case Numeric:
			fmt.Fprintf(&b, "%s=%.4g", d.Name, val.Num)
		case Embedding:
			fmt.Fprintf(&b, "%s=vec(%d)", d.Name, len(val.Vec))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Jaccard returns the Jaccard similarity |a∩b| / |a∪b| of two category sets
// (duplicates collapse). Two empty sets are defined to have similarity 1.
// Category sets are tiny, so quadratic in-place scans beat a hash map and
// allocate nothing; interned values take the sorted-merge JaccardIDs path
// instead.
func Jaccard(a, b []string) float64 {
	inter, union := 0, 0
	for i, s := range a {
		if containsBefore(a, i, s) {
			continue // duplicate within a
		}
		union++
		if contains(b, s) {
			inter++
		}
	}
	for i, s := range b {
		if containsBefore(b, i, s) {
			continue // duplicate within b
		}
		if !contains(a, s) {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func contains(set []string, s string) bool {
	for _, t := range set {
		if t == s {
			return true
		}
	}
	return false
}

func containsBefore(set []string, i int, s string) bool {
	for _, t := range set[:i] {
		if t == s {
			return true
		}
	}
	return false
}

// NumericSimilarity maps an absolute difference to (0, 1] using the feature's
// characteristic scale: exp(-|a-b|/scale). This is the normalized numeric
// contribution the paper's Algorithm 1 alludes to ("each feature's
// contribution is normalized"). A non-positive scale is treated as 1.
func NumericSimilarity(a, b, scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	return math.Exp(-math.Abs(a-b) / scale)
}

// CosineSimilarity returns the cosine similarity of two equal-length vectors,
// or 0 if either has zero norm or the lengths differ.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Scales holds per-feature characteristic scales for numeric similarity,
// keyed by feature name. FitScales estimates them from data.
type Scales map[string]float64

// FitScales estimates a characteristic scale for every numeric feature as
// the mean absolute deviation over the non-missing values in vectors.
// Features with no observed spread get scale 1.
func FitScales(schema *Schema, vectors []*Vector) Scales {
	scales := make(Scales)
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		if d.Kind != Numeric {
			continue
		}
		var sum float64
		var n int
		for _, v := range vectors {
			if val := v.Get(d.Name); !val.Missing {
				sum += val.Num
				n++
			}
		}
		if n == 0 {
			scales[d.Name] = 1
			continue
		}
		mean := sum / float64(n)
		var dev float64
		for _, v := range vectors {
			if val := v.Get(d.Name); !val.Missing {
				dev += math.Abs(val.Num - mean)
			}
		}
		scale := dev / float64(n)
		if scale <= 0 {
			scale = 1
		}
		scales[d.Name] = scale
	}
	return scales
}

// Similarity returns the [0,1] similarity contribution of feature position i
// between two vectors, and false when the feature is missing on either side.
// Categorical features use Jaccard similarity, numeric features normalized
// distance similarity, and embedding features [0,1]-rescaled cosine
// similarity — the per-feature terms of paper Algorithm 1.
func Similarity(a, b *Vector, i int, scales Scales) (float64, bool) {
	av, bv := a.values[i], b.values[i]
	if av.Missing || bv.Missing {
		return 0, false
	}
	d := a.schema.defs[i]
	switch d.Kind {
	case Categorical:
		return categoricalSimilarity(&av, &bv), true
	case Numeric:
		return NumericSimilarity(av.Num, bv.Num, scales[d.Name]), true
	case Embedding:
		return (CosineSimilarity(av.Vec, bv.Vec) + 1) / 2, true
	default:
		return 0, false
	}
}

// Weights holds per-feature importance multipliers for WeightedSimilarity,
// keyed by feature name. Absent features default to weight 1.
type Weights map[string]float64

// Weight implements paper Algorithm 1 (compute-weight): the similarity
// between two data points under their shared schema, as the unweighted mean
// of per-feature Similarity contributions. Features missing on either side
// contribute nothing; the result is in [0, 1], and 0 when the points share
// no present features.
func Weight(a, b *Vector, scales Scales) float64 {
	return WeightedSimilarity(a, b, scales, nil)
}

// WeightedSimilarity generalizes Weight with per-feature importance weights
// (the "each feature's contribution is normalized" refinement of Algorithm
// 1): the weighted mean of per-feature similarities over features present on
// both sides. nil weights mean uniform; non-positive weights drop a feature.
func WeightedSimilarity(a, b *Vector, scales Scales, weights Weights) float64 {
	schema := a.schema
	var sum, wsum float64
	for i := 0; i < schema.Len(); i++ {
		s, ok := Similarity(a, b, i, scales)
		if !ok {
			continue
		}
		w := 1.0
		if weights != nil {
			if got, exists := weights[schema.defs[i].Name]; exists {
				w = got
			}
		}
		if w <= 0 {
			continue
		}
		sum += w * s
		wsum += w
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

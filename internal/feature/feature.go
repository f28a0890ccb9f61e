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
	"slices"
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

// Value holds one feature value boxed: what At and Get return and Set and
// SetAt take, for callers that build or inspect vectors by value. Exactly
// one of the payload fields is meaningful, selected by the owning Def's Kind;
// Missing marks a feature the generating service could not compute for this
// data point (e.g. a text-specific service applied to an image). A Value
// read from a Vector aliases the vector's payload: do not mutate its slices.
type Value struct {
	Categories []string  // Categorical payload (a set; order is not significant).
	Num        float64   // Numeric payload.
	Vec        []float64 // Embedding payload.
	Missing    bool
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
	return !v.Missing && slices.Contains(v.Categories, c)
}

// cell is one feature slot of a Vector: 16 bytes and no pointers, so a slab
// of cells is one zeroed allocation the garbage collector never scans. The
// zero cell is Missing.
type cell struct {
	w    uint64 // Numeric: the float's bits; Categorical, Embedding: payload offset<<32 | length
	m    uint32 // Categorical: count of distinct intern IDs (<= length; see set)
	kind uint8  // 0: Missing; otherwise 1 + the Kind the value was stored under
}

func present(k Kind) uint8 { return 1 + uint8(k) }

// window returns the payload range of a categorical or embedding cell (a
// categorical one's IDs in written order).
func (c cell) window() (off, end int) { return int(c.w >> 32), int(c.w>>32) + int(uint32(c.w)) }

// set returns the payload range of a categorical cell's sorted, distinct
// IDs: right after the written IDs when there are several, else those.
func (c cell) set() (off, end int) {
	off, end = c.window()
	if end-off > 1 {
		off = end
	}
	return off, off + int(c.m)
}

// packWindow is the w of a value occupying n payload slots from off on; a
// window 32 bits cannot address is an error, never a wrap-around.
func packWindow(off, n int) (uint64, error) {
	if uint64(off)+uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("feature: %d values at payload offset %d overflow the cell's 32-bit window", n, off)
	}
	return uint64(off)<<32 | uint64(n), nil
}

// payload is the append-only store behind the cells of one vector, or of
// every vector of one NewVectors slab. It holds no pointers, so the garbage
// collector never scans it: a category is its intern ID, and its name lives
// once, in the process-wide interner.
type payload struct {
	// ids holds the categorical values: a cell's n intern IDs in written
	// order at ids[off:off+n], and, when n > 1, its m sorted distinct IDs
	// right after them at ids[off+n:off+n+m] (one ID is its own set), so the
	// similarity hot path intersects integer sets and never hashes strings.
	ids  []uint32
	embs []float64
}

// Vector is one data point's feature values under a Schema, indexed in
// schema order: one cell per feature over a payload of category intern IDs
// and embedding floats.
//
// Ownership and concurrency: a vector — or a whole NewVectors slab — is
// written by the goroutine that created it, before it is shared; after that
// any number of goroutines may read it. Setters copy their arguments into
// the payload, so mutating a slice after handing it to Set cannot change the
// vector. Reproject shares the source's payload read-only (a later write to
// either side is invisible to the other), the vectors of one slab share one
// payload (retaining one retains it all), and Clone is a deep copy.
type Vector struct {
	schema *Schema
	cells  []cell
	pay    *payload
	// borrowed marks pay as another vector's (Reproject): the first write
	// that needs payload room moves this vector to a private copy.
	borrowed bool
}

// NewVector returns an all-missing vector for schema.
func NewVector(schema *Schema) *Vector {
	o := &struct {
		Vector
		payload
	}{}
	o.Vector = Vector{schema: schema, cells: make([]cell, schema.Len()), pay: &o.payload}
	return &o.Vector
}

// Schema returns the vector's schema.
func (v *Vector) Schema() *Schema { return v.schema }

// NewVectors returns n all-missing vectors for schema carved out of one
// []Vector, one []cell and one shared payload: the chunk-granular form the
// disk store decodes into. Each vector's cell window is capacity-limited.
func NewVectors(schema *Schema, n int) []Vector { return ReuseVectors(nil, schema, n) }

// ReuseVectors is NewVectors over slab, an earlier result of it for the same
// schema whose vectors nothing reads any more: when slab's capacity holds n
// vectors, its first n are cleared to Missing and its payload is truncated,
// keeping its capacity, so refilling it appends into the same arrays. A
// slab without that room, or of another schema, is replaced by a new one.
func ReuseVectors(slab []Vector, schema *Schema, n int) []Vector {
	if n > 0 && cap(slab) >= n && slab[:1][0].schema == schema {
		slab = slab[:n]
		for r := range slab {
			clear(slab[r].cells)
		}
		p := slab[0].pay
		p.ids, p.embs = p.ids[:0], p.embs[:0]
		return slab
	}
	width := schema.Len()
	cells := make([]cell, n*width)
	pay := new(payload)
	vecs := make([]Vector, n)
	for r := range vecs {
		vecs[r] = Vector{schema: schema, cells: cells[r*width : (r+1)*width : (r+1)*width], pay: pay}
	}
	return vecs
}

// Grow reserves room in v's payload (its slab's, for a slab vector) for ids
// more category ID slots (CategorySlots counts them per value) and embs more
// embedding floats.
func (v *Vector) Grow(ids, embs int) {
	p := v.own()
	p.ids = slices.Grow(p.ids, ids)
	p.embs = slices.Grow(p.embs, embs)
}

// CategorySlots returns how many payload ID slots a categorical value of n
// categories takes at most: its n IDs, and as many again for the sorted set
// when n > 1.
func CategorySlots(n int) int {
	if n > 1 {
		return 2 * n
	}
	return n
}

// PayloadLen returns how many category ID slots and embedding floats v's
// payload holds — what keeping v alive keeps alive: a NewVectors slab's all.
func (v *Vector) PayloadLen() (ids, embs int) { return len(v.pay.ids), len(v.pay.embs) }

// own returns the payload v may append to, first moving a borrowed vector
// to a private copy of the windows its cells use.
func (v *Vector) own() *payload {
	if v.borrowed {
		c := v.Clone()
		v.cells, v.pay, v.borrowed = c.cells, c.pay, false
	}
	return v.pay
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
// schema order skip the per-value name lookup. It stores the payload field
// the feature's Kind selects. i must be in [0, Schema().Len()).
func (v *Vector) SetAt(i int, val Value) error {
	switch d := &v.schema.defs[i]; {
	case val.Missing:
		v.cells[i] = cell{}
	case d.Kind == Numeric:
		v.SetNum(i, val.Num)
	case d.Kind == Categorical:
		// Interned in order, duplicates kept (an empty set stays distinct
		// from Missing). Producers that hold intern IDs already call
		// SetCategoryIDs.
		var buf [8]uint32
		ids := buf[:0]
		for _, c := range val.Categories {
			ids = append(ids, InternID(c))
		}
		return v.SetCategoryIDs(i, ids)
	case d.Kind == Embedding:
		return v.SetVec(i, val.Vec)
	default:
		return fmt.Errorf("feature: %q has unknown kind %v", d.Name, d.Kind)
	}
	return nil
}

// SetNum stores a present numeric value at position i.
func (v *Vector) SetNum(i int, x float64) {
	v.cells[i] = cell{w: math.Float64bits(x), kind: present(Numeric)}
}

// SetCategoryIDs stores a present categorical value at position i from its
// categories' intern IDs: a copy of ids, order and duplicates kept, and for
// more than one ID the sorted distinct set beside them.
func (v *Vector) SetCategoryIDs(i int, ids []uint32) error {
	p := v.own()
	off, n := len(p.ids), len(ids)
	if _, err := packWindow(off, CategorySlots(n)); err != nil {
		return err
	}
	p.ids = append(p.ids, ids...)
	m := n
	if n > 1 {
		p.ids = append(p.ids, ids...)
		m = len(sortedIDSet(p.ids[off+n:]))
		p.ids = p.ids[:off+n+m]
	}
	v.cells[i] = cell{w: uint64(off)<<32 | uint64(n), m: uint32(m), kind: present(Categorical)}
	return nil
}

// SetVec stores a present embedding at position i, copying vec. It returns
// an error if vec is not of the feature's dimension.
func (v *Vector) SetVec(i int, vec []float64) error {
	if d := &v.schema.defs[i]; len(vec) != d.Dim {
		return fmt.Errorf("feature: embedding %q wants dim %d, got %d", d.Name, d.Dim, len(vec))
	}
	return v.setVec(i, vec)
}

// setVec is SetVec without the dimension check (Clone carries whatever
// length a reprojection brought along).
func (v *Vector) setVec(i int, vec []float64) error {
	p := v.own()
	w, err := packWindow(len(p.embs), len(vec))
	if err != nil {
		return err
	}
	p.embs = append(p.embs, vec...)
	v.cells[i] = cell{w: w, kind: present(Embedding)}
	return nil
}

// Unset returns position i to Missing. When i holds the last value written
// to the payload, its room is given back too, so observing into a position,
// reading it and unsetting it (a video frame, a result being degraded)
// leaves the payload as it was. Like every write it is for v's writer, before
// v is shared: a reprojection of v may still be reading that room.
func (v *Vector) Unset(i int) {
	c := v.cells[i]
	v.cells[i] = cell{}
	if v.borrowed {
		return
	}
	p := v.pay
	switch off, end := c.window(); c.kind {
	case present(Categorical):
		if _, setEnd := c.set(); max(end, setEnd) == len(p.ids) {
			p.ids = p.ids[:off]
		}
	case present(Embedding):
		if end == len(p.embs) {
			p.embs = p.embs[:off]
		}
	}
}

// MustSet is Set that panics on error; for construction of statically known
// vectors.
func (v *Vector) MustSet(name string, val Value) {
	if err := v.Set(name, val); err != nil {
		panic(err)
	}
}

// MustSetAt is SetAt that panics on error; for callers whose values are
// kind-correct by construction (a resource filling its own feature).
func (v *Vector) MustSetAt(i int, val Value) {
	if err := v.SetAt(i, val); err != nil {
		panic(err)
	}
}

// Present reports whether position i holds a value. The typed readers below
// never build a Value; each returns the zero value when the position is
// Missing or holds another kind, and their slices alias the payload.
func (v *Vector) Present(i int) bool { return v.cells[i].kind != 0 }

// Num returns the numeric value at position i.
func (v *Vector) Num(i int) float64 {
	if c := v.cells[i]; c.kind == present(Numeric) {
		return math.Float64frombits(c.w)
	}
	return 0
}

// CategoryList returns the intern IDs of the categories at position i, in
// written order with duplicates; nil for an empty set.
func (v *Vector) CategoryList(i int) []uint32 {
	c := v.cells[i]
	if off, end := c.window(); c.kind == present(Categorical) && end > off {
		return v.pay.ids[off:end:end]
	}
	return nil
}

// CategoryIDs returns the categories at position i as sorted, distinct
// intern IDs: the sets the similarity kernels intersect.
func (v *Vector) CategoryIDs(i int) []uint32 {
	c := v.cells[i]
	if off, end := c.set(); c.kind == present(Categorical) && end > off {
		return v.pay.ids[off:end:end]
	}
	return nil
}

// CategoryNames returns the category names at position i, in written order
// with duplicates; nil for an empty set. It allocates the slice, so it is
// for display, export and tests: hot paths read CategoryList.
func (v *Vector) CategoryNames(i int) []string {
	ids := v.CategoryList(i)
	if ids == nil {
		return nil
	}
	names := make([]string, len(ids))
	for k, id := range ids {
		names[k] = InternedCategory(id)
	}
	return names
}

// Vec returns the embedding at position i.
func (v *Vector) Vec(i int) []float64 {
	c := v.cells[i]
	if off, end := c.window(); c.kind == present(Embedding) {
		return v.pay.embs[off:end:end]
	}
	return nil
}

// Get returns the named feature's value; missing names yield a missing value.
func (v *Vector) Get(name string) Value {
	if i, ok := v.schema.Index(name); ok {
		return v.At(i)
	}
	return MissingValue()
}

// At returns the value at schema position i.
func (v *Vector) At(i int) Value {
	switch v.cells[i].kind {
	case 0:
		return Value{Missing: true}
	case present(Numeric):
		return Value{Num: v.Num(i)}
	case present(Categorical):
		return Value{Categories: v.CategoryNames(i)}
	default:
		return Value{Vec: v.Vec(i)}
	}
}

// Reproject copies the vector onto target, carrying over values for features
// that exist in both schemas (matched by name) and leaving the rest missing.
// Only cells are copied: the result borrows v's payload.
func (v *Vector) Reproject(target *Schema) *Vector {
	out := &Vector{schema: target, cells: make([]cell, target.Len()), pay: v.pay, borrowed: true}
	for i := range v.schema.defs {
		if j, ok := target.index[v.schema.defs[i].Name]; ok {
			out.cells[j] = v.cells[i]
		}
	}
	return out
}

// Clone returns a deep copy of the vector, its payload compacted to the
// windows the cells use.
func (v *Vector) Clone() *Vector {
	out := NewVector(v.schema)
	for i, c := range v.cells {
		switch c.kind { // neither write can fail: the copy's windows are no larger than the source's
		case present(Categorical):
			_ = out.SetCategoryIDs(i, v.CategoryList(i))
		case present(Embedding):
			_ = out.setVec(i, v.Vec(i))
		default:
			out.cells[i] = c
		}
	}
	return out
}

// Equal reports whether v and o hold the same values under equal schemas:
// presence, numeric and embedding floats by their bits, categories in order
// with duplicates.
func (v *Vector) Equal(o *Vector) bool {
	if v.schema != o.schema && !slices.Equal(v.schema.defs, o.schema.defs) {
		return false
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range v.cells {
		if v.cells[i].kind != o.cells[i].kind || !bits(v.Num(i), o.Num(i)) ||
			!slices.Equal(v.CategoryList(i), o.CategoryList(i)) || !slices.EqualFunc(v.Vec(i), o.Vec(i), bits) {
			return false
		}
	}
	return true
}

// String renders the non-missing entries as "name=value" pairs.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, d := range v.schema.defs {
		val := v.At(i)
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
		if slices.Contains(a[:i], s) {
			continue // duplicate within a
		}
		union++
		if slices.Contains(b, s) {
			inter++
		}
	}
	for i, s := range b {
		if slices.Contains(b[:i], s) {
			continue // duplicate within b
		}
		if !slices.Contains(a, s) {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
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
	d := &a.schema.defs[i]
	return similarity(a, b, i, d.Kind, scales[d.Name])
}

func similarity(a, b *Vector, i int, kind Kind, scale float64) (float64, bool) {
	if !a.Present(i) || !b.Present(i) {
		return 0, false
	}
	switch kind {
	case Categorical:
		return JaccardIDs(a.CategoryIDs(i), b.CategoryIDs(i)), true
	case Numeric:
		return NumericSimilarity(a.Num(i), b.Num(i), scale), true
	case Embedding:
		return (CosineSimilarity(a.Vec(i), b.Vec(i)) + 1) / 2, true
	default:
		return 0, false
	}
}

// Weights holds per-feature importance multipliers for WeightedSimilarity,
// keyed by feature name. Absent features default to weight 1.
type Weights map[string]float64

// WeightedSimilarity implements paper Algorithm 1 (compute-weight) with
// per-feature importance weights (its "each feature's contribution is
// normalized" refinement): the similarity between two data points under
// their shared schema, as the weighted mean of per-feature Similarity
// contributions over features present on both sides. nil weights mean
// uniform; non-positive weights drop a feature. The result is in [0, 1], and
// 0 when the points share no present features.
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

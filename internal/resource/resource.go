// Package resource simulates organizational resources: the model-based
// services, aggregate statistics, and rule-based services an organization
// has accumulated (paper §3), which transform data points of any modality
// into structured feature values and thereby induce the common feature space.
//
// Each Resource observes a data point's hidden entity through a
// modality-specific noise channel (fidelity, dropout, false positives), so
// the same service is more reliable on some modalities than others — the
// mechanism behind the paper's cross-modality distribution differences.
// Video points are featurized by splitting into image frames and merging the
// per-frame observations (paper §3.1.1).
package resource

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// ObsParams sets the reliability of one observation channel.
type ObsParams struct {
	// Fidelity is the probability a categorical observation is correct
	// (incorrect observations draw a random other value), or the weight of
	// the true value for numeric observations.
	Fidelity float64
	// Dropout is the probability the whole observation is Missing.
	Dropout float64
	// FalsePositive is the probability of adding one spurious category to
	// a multivalent observation.
	FalsePositive float64
	// ConfusionShift, when positive, makes 80% of categorical
	// misclassifications systematic: the observed value is the true index
	// shifted by this amount, modeling a channel that consistently
	// confuses specific values (the driver of cross-modality input
	// distribution shift).
	ConfusionShift int
	// Noise is the numeric observation's Gaussian noise scale.
	Noise float64
}

// Resource is one organizational service. Implementations must be safe for
// concurrent Observe calls.
type Resource interface {
	// Def describes the feature this resource produces.
	Def() feature.Def
	// Supports reports whether the resource can process modality m.
	Supports(m synth.Modality) bool
	// Observe writes the resource's (noisy) view of entity e through modality
	// m into position i of dst — the position of a feature of the resource's
	// kind, still Missing — using rng for all observation noise. An
	// observation that drops out leaves the position Missing.
	Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand)
}

// Library is a collection of resources applied together to build the common
// feature space.
type Library struct {
	world     *synth.World
	resources []Resource
	schema    *feature.Schema
	hashes    []uint64 // xrand.Hash of each resource's channel (feature) name
}

// NewLibrary assembles a library. Resource feature names must be unique.
func NewLibrary(world *synth.World, resources ...Resource) (*Library, error) {
	defs := make([]feature.Def, len(resources))
	hashes := make([]uint64, len(resources))
	for i, r := range resources {
		defs[i] = r.Def()
		hashes[i] = xrand.Hash(defs[i].Name)
	}
	schema, err := feature.NewSchema(defs...)
	if err != nil {
		return nil, fmt.Errorf("resource: %w", err)
	}
	return &Library{world: world, resources: resources, schema: schema, hashes: hashes}, nil
}

// reserve is the payload room n points like p are expected to fill, erring
// high so append never regrows a slab: an ID and a half per categorical
// service that applies (most write one ID; the few that write two or three
// take as many again for the sorted set).
func (l *Library) reserve(p *synth.Point, n int) (ids, embs int) {
	for i, r := range l.resources {
		if !Applicable(r, p) {
			continue
		}
		if d := l.schema.Def(i); d.Kind == feature.Categorical {
			ids += 6 // quarters
		} else {
			embs += d.Dim // 0 for a numeric
		}
	}
	return n * ids / 4, n * embs
}

// Schema returns the feature schema induced by the library.
func (l *Library) Schema() *feature.Schema { return l.schema }

// World returns the world the library's services observe.
func (l *Library) World() *synth.World { return l.world }

// Resources returns the library's resources in schema order.
func (l *Library) Resources() []Resource {
	return append([]Resource(nil), l.resources...)
}

// Applicable reports whether resource r can featurize point p at all (video
// points are served through the image channel, frame by frame).
func Applicable(r Resource, p *synth.Point) bool {
	if p.Modality == synth.Video {
		return r.Supports(synth.Image)
	}
	return r.Supports(p.Modality)
}

// observeInto writes r's view of p into the still-Missing position i of dst:
// one service call's result, video frame merge included. It reseeds rng to
// the channel's (or each video frame's) own stream, so a point or a block of
// points costs one generator; hash is the channel name's. Callers must check
// Applicable first.
func observeInto(dst *feature.Vector, i int, r Resource, hash uint64, p *synth.Point, rng *rand.Rand) {
	if p.Modality == synth.Video {
		observeVideo(dst, i, r, p, rng)
		return
	}
	p.SeedChannel(rng, hash)
	r.Observe(dst, i, p.Entity, p.Modality, rng)
}

// featurizeInto runs every applicable resource on p, each writing its own
// position of the all-Missing dst. Resources sit in schema order (NewLibrary
// builds the schema from them), so resource i fills position i.
func (l *Library) featurizeInto(dst *feature.Vector, p *synth.Point, rng *rand.Rand) {
	for i, r := range l.resources {
		if Applicable(r, p) {
			observeInto(dst, i, r, l.hashes[i], p, rng)
		}
	}
}

// FeaturizePoint runs every applicable resource on one point and returns its
// feature vector under the library schema, owning its payload. Resources that
// do not support the point's modality leave their feature missing. Video
// points are split into frames rendered through the image channel and merged.
func (l *Library) FeaturizePoint(p *synth.Point) *feature.Vector {
	return l.FeaturizePointWith(p, xrand.New(0))
}

// FeaturizePointWith is FeaturizePoint on the caller's generator, which it
// reseeds for every channel, so a caller featurizing many points one by one
// needs one generator, not one per point. The vector still owns its payload.
func (l *Library) FeaturizePointWith(p *synth.Point, rng *rand.Rand) *feature.Vector {
	v := feature.NewVector(l.schema)
	v.Grow(l.reserve(p, 1))
	l.featurizeInto(v, p, rng)
	return v
}

// observeVideo merges p's frames into the still-Missing position i of dst:
// categorical values union, numeric and embedding values average, and
// all-missing frames leave i Missing. Each frame is observed into i through
// the image channel, read through the typed readers (which return nothing for
// the kinds the feature is not) and unset, which gives its payload room back.
func observeVideo(dst *feature.Vector, i int, r Resource, p *synth.Point, rng *rand.Rand) {
	d := r.Def()
	var seen []uint32 // distinct category IDs, first-seen order
	acc := make([]float64, d.Dim)
	var sum float64
	n := 0
	for f := 0; f < max(p.Frames, 1); f++ {
		p.SeedFrame(rng, d.Name, f)
		r.Observe(dst, i, p.Entity, synth.Image, rng)
		if !dst.Present(i) {
			continue
		}
		n++
		for _, id := range dst.CategoryList(i) {
			if !slices.Contains(seen, id) {
				seen = append(seen, id)
			}
		}
		sum += dst.Num(i)
		for k, x := range dst.Vec(i) {
			acc[k] += x
		}
		dst.Unset(i)
	}
	switch {
	case n == 0: // every frame dropped out: i stays Missing
	case d.Kind == feature.Categorical:
		slices.SortFunc(seen, func(a, b uint32) int {
			return strings.Compare(feature.InternedCategory(a), feature.InternedCategory(b))
		})
		must(dst.SetCategoryIDs(i, seen))
	case d.Kind == feature.Numeric:
		dst.SetNum(i, sum/float64(n))
	default:
		for k := range acc {
			acc[k] /= float64(n)
		}
		must(dst.SetVec(i, acc))
	}
}

// Featurize runs the library over a corpus in parallel (the paper's
// MapReduce featurization job) and returns one vector per point, in order.
// Each block a worker claims lands in one feature.NewVectors slab with one
// generator — a handful of objects per block, none per point — so a block's
// vectors share a payload: FeaturizePoint a vector kept past its batch.
func (l *Library) Featurize(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) ([]*feature.Vector, error) {
	return l.FeaturizeInto(ctx, cfg, pts, nil)
}

// Batch is the memory of one featurized batch — the output slice and every
// block's slab and generator — kept so the next batch refills it instead of
// allocating its own. The zero Batch holds nothing yet.
type Batch struct {
	vecs   []*feature.Vector
	mu     sync.Mutex
	blocks []*block // blocks[:used] are the current batch's
	used   int
}

// block is one claimed block's slab and generator.
type block struct {
	slab []feature.Vector
	rng  *rand.Rand
}

// claim hands the calling block a block of b's, reused when a previous batch
// left one over.
func (b *Batch) claim() *block {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used == len(b.blocks) {
		b.blocks = append(b.blocks, new(block))
	}
	b.used++
	return b.blocks[b.used-1]
}

// FeaturizeInto is Featurize refilling b, when b is not nil: its blocks'
// slabs are cleared and refilled (feature.ReuseVectors), and the returned
// slice is b's, so the vectors of b's previous batch are overwritten and
// must no longer be read. Which block gets which slab does not matter:
// every slab is reset before it is written.
func (l *Library) FeaturizeInto(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point, b *Batch) ([]*feature.Vector, error) {
	var out []*feature.Vector
	if b != nil {
		b.vecs, b.used = slices.Grow(b.vecs[:0], len(pts))[:len(pts)], 0
		out = b.vecs
	} else {
		out = make([]*feature.Vector, len(pts))
	}
	err := mapreduce.Blocks(ctx, cfg, len(pts), func(_ context.Context, lo, hi int) error {
		var fresh block
		blk := &fresh
		if b != nil {
			blk = b.claim()
		}
		blk.slab = feature.ReuseVectors(blk.slab, l.schema, hi-lo)
		vecs := blk.slab
		vecs[0].Grow(l.reserve(pts[lo], hi-lo))
		if blk.rng == nil {
			blk.rng = xrand.New(0)
		}
		for k := range vecs {
			l.featurizeInto(&vecs[k], pts[lo+k], blk.rng)
			out[lo+k] = &vecs[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

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
	"sort"

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
	// Observe renders the resource's (noisy) view of entity e through
	// modality m, using rng for all observation noise.
	Observe(e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value
}

// Library is a collection of resources applied together to build the common
// feature space. A library built WithGuards additionally carries per-resource
// retry/breaker guards for the checked featurization path; Subset and
// NewLibrary always produce unguarded libraries.
type Library struct {
	world     *synth.World
	resources []Resource
	schema    *feature.Schema
	guards    []*Guard // nil unless built WithGuards
}

// NewLibrary assembles a library. Resource feature names must be unique.
func NewLibrary(world *synth.World, resources ...Resource) (*Library, error) {
	defs := make([]feature.Def, len(resources))
	for i, r := range resources {
		defs[i] = r.Def()
	}
	schema, err := feature.NewSchema(defs...)
	if err != nil {
		return nil, fmt.Errorf("resource: %w", err)
	}
	return &Library{world: world, resources: resources, schema: schema}, nil
}

// Schema returns the feature schema induced by the library.
func (l *Library) Schema() *feature.Schema { return l.schema }

// World returns the world the library's services observe.
func (l *Library) World() *synth.World { return l.world }

// Resources returns the library's resources in schema order.
func (l *Library) Resources() []Resource {
	return append([]Resource(nil), l.resources...)
}

// Subset returns a library containing only resources whose feature set label
// is in sets, preserving order. Unknown set labels simply select nothing.
func (l *Library) Subset(sets ...string) (*Library, error) {
	want := make(map[string]bool, len(sets))
	for _, s := range sets {
		want[s] = true
	}
	var keep []Resource
	for _, r := range l.resources {
		if want[r.Def().Set] {
			keep = append(keep, r)
		}
	}
	return NewLibrary(l.world, keep...)
}

// Applicable reports whether resource r can featurize point p at all (video
// points are served through the image channel, frame by frame).
func Applicable(r Resource, p *synth.Point) bool {
	if p.Modality == synth.Video {
		return r.Supports(synth.Image)
	}
	return r.Supports(p.Modality)
}

// ObservePoint renders one resource's view of one point: the unit of work a
// single "service call" performs, including the per-frame merge for video
// points. It is the seam the fault-injection layer wraps — a failure of one
// ObservePoint is the failure of one organizational-service call.
// Callers must check Applicable first.
func ObservePoint(r Resource, p *synth.Point) feature.Value {
	return observePoint(r, p, xrand.New(0))
}

// observePoint is ObservePoint drawing its noise from rng, which it reseeds
// to the channel's (or each video frame's) own stream: featurizing a point
// costs one generator, not one per resource.
func observePoint(r Resource, p *synth.Point, rng *rand.Rand) feature.Value {
	if p.Modality == synth.Video {
		return observeVideo(r, p, rng)
	}
	p.SeedObservation(rng, r.Def().Name)
	return r.Observe(p.Entity, p.Modality, rng)
}

// FeaturizePoint runs every applicable resource on one point and returns its
// feature vector under the library schema. Resources that do not support the
// point's modality leave their feature missing. Video points are split into
// frames rendered through the image channel and merged.
func (l *Library) FeaturizePoint(p *synth.Point) *feature.Vector {
	rng := xrand.New(0)
	var buf [24]feature.Value // the standard library's 18 observations stay on the stack
	vals := buf[:0]
	for _, r := range l.resources {
		val := feature.MissingValue()
		if Applicable(r, p) {
			val = observePoint(r, p, rng)
		}
		vals = append(vals, val)
	}
	return l.vector(vals)
}

// vector assembles one observation per resource into a vector whose payload
// is sized once. Resources sit in schema order (NewLibrary builds the schema
// from them), so observation i fills position i without a name lookup.
func (l *Library) vector(vals []feature.Value) *feature.Vector {
	var cats, embs int
	for i := range vals {
		cats += len(vals[i].Categories)
		embs += len(vals[i].Vec)
	}
	v := feature.NewVector(l.schema)
	v.Grow(cats, embs)
	for i := range vals {
		v.MustSetAt(i, vals[i])
	}
	return v
}

// observeVideo merges per-frame image observations: categorical values
// union, numeric and embedding values average; all-missing frames leave the
// feature missing.
func observeVideo(r Resource, p *synth.Point, rng *rand.Rand) feature.Value {
	d := r.Def()
	frames := p.Frames
	if frames <= 0 {
		frames = 1
	}
	frame := func(f int) feature.Value {
		p.SeedFrame(rng, d.Name, f)
		return r.Observe(p.Entity, synth.Image, rng)
	}
	switch d.Kind {
	case feature.Categorical:
		seen := make(map[string]bool)
		any := false
		for f := 0; f < frames; f++ {
			val := frame(f)
			if val.Missing {
				continue
			}
			any = true
			for _, c := range val.Categories {
				seen[c] = true
			}
		}
		if !any {
			return feature.MissingValue()
		}
		cats := make([]string, 0, len(seen))
		for c := range seen {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		return feature.CategoricalValue(cats...)
	case feature.Numeric:
		var sum float64
		n := 0
		for f := 0; f < frames; f++ {
			val := frame(f)
			if val.Missing {
				continue
			}
			sum += val.Num
			n++
		}
		if n == 0 {
			return feature.MissingValue()
		}
		return feature.NumericValue(sum / float64(n))
	case feature.Embedding:
		acc := make([]float64, d.Dim)
		n := 0
		for f := 0; f < frames; f++ {
			val := frame(f)
			if val.Missing || len(val.Vec) != d.Dim {
				continue
			}
			for i, x := range val.Vec {
				acc[i] += x
			}
			n++
		}
		if n == 0 {
			return feature.MissingValue()
		}
		for i := range acc {
			acc[i] /= float64(n)
		}
		return feature.EmbeddingValue(acc)
	default:
		return feature.MissingValue()
	}
}

// Featurize runs the library over a corpus in parallel (the paper's
// MapReduce featurization job) and returns one vector per point, in order.
func (l *Library) Featurize(ctx context.Context, cfg mapreduce.Config, pts []*synth.Point) ([]*feature.Vector, error) {
	return mapreduce.Map(ctx, cfg, pts, func(p *synth.Point) (*feature.Vector, error) {
		return l.FeaturizePoint(p), nil
	})
}

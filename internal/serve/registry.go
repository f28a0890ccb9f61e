package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/model"
)

// The registry owns the serving model. The current model lives behind an
// atomic.Pointer: request goroutines snapshot it wait-free, and a reload
// validates the incoming artifact on a canary batch and then swaps the
// pointer — in-flight requests keep scoring with the snapshot they took, so
// a hot-swap never drops or corrupts a request (paper §2.4's "deploy the
// fused model behind serving infra" without downtime).

// inPlaceScorer is the optional serving surface of a predictor that scores a
// batch into a caller's slice without allocating (fusion.EarlyModel).
type inPlaceScorer interface {
	fusion.Predictor
	ServePrecision() model.Precision
	PredictBatchQInto(vs []*feature.Vector, out []float64)
}

// Loaded is one installed model generation. Immutable once published.
type Loaded struct {
	Model fusion.Predictor
	Kind  string
	Path  string // artifact path, "" for in-process installs
	Seq   uint64 // monotone generation number, 1-based
	// Precision is the artifact's precision stamp, Float64 for predictors
	// without one. It selects nothing: every model scores on float64.
	Precision model.Precision
	// scoreInto is the batch scorer execBatch calls: the early model's
	// in-place scorer, PredictBatch copied into out for predictors without
	// one. Both return PredictBatch's scores exactly.
	scoreInto func(vs []*feature.Vector, out []float64)
	// Lineage is the artifact's provenance stamp, nil for artifacts
	// written without one (and for in-process installs).
	Lineage *fusion.Lineage
}

// Registry holds the current model and performs validated hot-swaps.
type Registry struct {
	cur    atomic.Pointer[Loaded]
	seq    atomic.Uint64
	mu     sync.Mutex // serializes reloads; readers never take it
	canary []*feature.Vector
}

// NewRegistry builds an empty registry. canary is the validation batch every
// incoming model must score sanely before it is swapped in; nil or empty
// skips validation.
func NewRegistry(canary []*feature.Vector) *Registry {
	return &Registry{canary: canary}
}

// Current returns the serving model, or nil before the first install.
// Callers must keep using the returned snapshot for a whole request rather
// than re-reading, so a concurrent swap cannot split a request across models.
func (r *Registry) Current() *Loaded { return r.cur.Load() }

// Ready reports whether a model is installed.
func (r *Registry) Ready() bool { return r.cur.Load() != nil }

// validate scores the canary batch with m and rejects models that return
// non-finite or out-of-range probabilities — the cheap liveness gate that
// catches shape-mismatched or corrupt artifacts before they take traffic.
func (r *Registry) validate(m fusion.Predictor) error {
	if len(r.canary) == 0 {
		return nil
	}
	scores := m.PredictBatch(r.canary)
	if len(scores) != len(r.canary) {
		return fmt.Errorf("serve: canary returned %d scores for %d points", len(scores), len(r.canary))
	}
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 || s > 1 {
			return fmt.Errorf("serve: canary point %d scored %v, want a probability", i, s)
		}
	}
	return nil
}

// Install validates m on the canary batch and atomically makes it the
// serving model. path is recorded for observability only.
func (r *Registry) Install(m fusion.Predictor, path string) (*Loaded, error) {
	return r.install(m, path, nil)
}

func (r *Registry) install(m fusion.Predictor, path string, lg *fusion.Lineage) (*Loaded, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.validate(m); err != nil {
		return nil, err
	}
	kind := fusion.Kind(m)
	if kind == "" {
		kind = fmt.Sprintf("%T", m)
	}
	l := &Loaded{
		Model:   m,
		Kind:    kind,
		Path:    path,
		Seq:     r.seq.Add(1),
		Lineage: lg,
	}
	if s, ok := m.(inPlaceScorer); ok {
		l.Precision = s.ServePrecision()
		l.scoreInto = s.PredictBatchQInto
	} else {
		l.scoreInto = func(vs []*feature.Vector, out []float64) { copy(out, m.PredictBatch(vs)) }
	}
	r.cur.Store(l)
	return l, nil
}

// LoadArtifact reads a model artifact from disk, validates it on the canary
// batch, and hot-swaps it in, carrying any lineage stamp along. On any
// failure the previous model keeps serving untouched.
func (r *Registry) LoadArtifact(path string) (*Loaded, error) {
	m, _, lg, err := fusion.LoadFileLineage(path)
	if err != nil {
		return nil, err
	}
	return r.install(m, path, lg)
}

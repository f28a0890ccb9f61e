package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/model"
	"crossmodal/internal/synth"
)

// mustDecode unmarshals a JSON response body or fails the test.
func mustDecode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
}

// quantCopy clones the fixture's early-fusion model through an artifact
// round trip (the fixture is shared and read-only) and stamps it with p.
func quantCopy(t *testing.T, p model.Precision) *fusion.EarlyModel {
	t.Helper()
	fixture(t)
	var buf bytes.Buffer
	if err := fusion.Save(&buf, fx.modelA); err != nil {
		t.Fatal(err)
	}
	got, _, err := fusion.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	em := got.(*fusion.EarlyModel)
	if err := em.SetServePrecision(p); err != nil {
		t.Fatal(err)
	}
	return em
}

// TestQuantizedServingEndToEnd installs the float64 model, scores a point
// over HTTP, hot-swaps in the same weights stamped float32, and asserts the
// served score stays within the quantization bound with the same decision.
func TestQuantizedServingEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	req := predictRequest{Points: []PointRequest{{ID: 42}}}
	resp, body := postJSON(t, ts.URL+"/predict", req)
	if resp.StatusCode != 200 {
		t.Fatalf("exact predict: %d %s", resp.StatusCode, body)
	}
	var exact predictResponse
	mustDecode(t, body, &exact)

	l, err := s.Registry().Install(quantCopy(t, model.Float32), "")
	if err != nil {
		t.Fatal(err)
	}
	if l.Precision != model.Float32 {
		t.Fatalf("installed precision = %v, want f32", l.Precision)
	}
	resp, body = postJSON(t, ts.URL+"/predict", req)
	if resp.StatusCode != 200 {
		t.Fatalf("quantized predict: %d %s", resp.StatusCode, body)
	}
	var quant predictResponse
	mustDecode(t, body, &quant)
	if quant.ModelSeq != l.Seq {
		t.Errorf("served seq %d, want %d", quant.ModelSeq, l.Seq)
	}
	d := math.Abs(quant.Scores[0] - exact.Scores[0])
	if d >= 1e-3 {
		t.Errorf("|quant-exact| = %g, want < 1e-3", d)
	}
	if (quant.Scores[0] >= 0.5) != (exact.Scores[0] >= 0.5) {
		t.Errorf("quantized serving flips the decision (%v vs %v)", quant.Scores[0], exact.Scores[0])
	}
}

// TestInstalledScorerMatchesPredictBatch: execBatch has one scoring call, so
// every installed model carries a scorer — the early model's in-place engine
// at its stamped precision (bit-equal to PredictBatch for float64, within the
// precision's Tolerance otherwise), PredictBatch itself for the rest.
func TestInstalledScorerMatchesPredictBatch(t *testing.T) {
	fixture(t)
	inter, err := fusion.TrainIntermediate(ctxbg, []fusion.Corpus{fx.corpus}, fusion.Config{
		Schema: fx.store.Library().Schema().Servable(),
		Model:  model.Config{Hidden: []int{8}, Epochs: 1, Seed: 5, LearningRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	vecs := fx.corpus.Vectors[:150] // more than one PredictBatch work item
	for _, c := range []struct {
		name string
		m    fusion.Predictor
		prec model.Precision
	}{
		{"float64 early", fx.modelA, model.Float64},
		{"f32 early", quantCopy(t, model.Float32), model.Float32},
		{"intermediate", inter, model.Float64},
	} {
		l, err := NewRegistry(nil).Install(c.m, "")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if l.Precision != c.prec || l.scoreInto == nil {
			t.Fatalf("%s: installed precision %v, scorer %v", c.name, l.Precision, l.scoreInto != nil)
		}
		got := make([]float64, len(vecs))
		l.scoreInto(vecs, got)
		tol, _ := c.prec.Tolerance()
		for i, want := range c.m.PredictBatch(vecs) {
			if d := math.Abs(got[i] - want); d > tol {
				t.Fatalf("%s: point %d scored %v in place, PredictBatch %v (limit %g)", c.name, i, got[i], want, tol)
			}
		}
	}
}

// divergentQuant is a predictor whose quantized path disagrees wildly with
// its float64 path — the failure mode the canary gate must refuse.
type divergentQuant struct{ base fusion.Predictor }

func (d *divergentQuant) Predict(v *feature.Vector) float64 { return d.base.Predict(v) }
func (d *divergentQuant) PredictBatch(vs []*feature.Vector) []float64 {
	return d.base.PredictBatch(vs)
}
func (d *divergentQuant) ServePrecision() model.Precision { return model.Int8 }
func (d *divergentQuant) PredictBatchQInto(vs []*feature.Vector, out []float64) {
	ref := d.base.PredictBatch(vs)
	for i := range out {
		out[i] = 1 - ref[i] // maximal divergence, decisions flipped
	}
}

// TestRegistryRejectsDivergentQuantization is the canary gate: a model whose
// reduced-precision path strays from its float64 reference must not swap in.
func TestRegistryRejectsDivergentQuantization(t *testing.T) {
	fixture(t)
	pts := make([]*synth.Point, 4)
	for i := range pts {
		pts[i] = DerivePoint(fx.world, fxSeed, 300+i, synth.Image, 0)
	}
	vecs, err := fx.store.Featurize(ctxbg, mapreduce.Config{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(vecs)
	if _, err := r.Install(&divergentQuant{base: fx.modelA}, ""); err == nil {
		t.Fatal("divergent quantized model passed canary validation")
	}
	if r.Ready() {
		t.Error("registry became ready from a rejected model")
	}
	// The same weights with a faithful quantized path install fine.
	if _, err := r.Install(quantCopy(t, model.Float32), ""); err != nil {
		t.Fatalf("faithful f32 model rejected: %v", err)
	}
}

// TestRegistryAcceptsInt8WithinTolerance pins the per-precision canary
// bound: an int8 engine legitimately diverges past f32's 1e-3 limit but
// stays within its own 5e-2 contract, so a faithfully int8-stamped model
// must pass the canary gate (a flat 1e-3 gate rejected every int8
// artifact).
func TestRegistryAcceptsInt8WithinTolerance(t *testing.T) {
	fixture(t)
	pts := make([]*synth.Point, 8)
	for i := range pts {
		pts[i] = DerivePoint(fx.world, fxSeed, 400+i, synth.Image, 0)
	}
	vecs, err := fx.store.Featurize(ctxbg, mapreduce.Config{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(vecs)
	l, err := r.Install(quantCopy(t, model.Int8), "")
	if err != nil {
		t.Fatalf("faithful int8 model rejected by canary: %v", err)
	}
	if l.Precision != model.Int8 || l.scoreInto == nil {
		t.Errorf("int8 install got precision %v, scorer %v", l.Precision, l.scoreInto != nil)
	}
}

// TestBuildPointCache pins the direct-mapped request-point cache: repeated
// builds return the identical cached point, and the cached point is exactly
// what DerivePoint renders.
func TestBuildPointCache(t *testing.T) {
	s, _ := newTestServer(t, BatcherConfig{}, time.Second)
	a := s.BuildPoint(7, synth.Image, 0)
	b := s.BuildPoint(7, synth.Image, 0)
	if a != b {
		t.Error("repeated BuildPoint did not return the cached point")
	}
	ref := DerivePoint(fx.world, fxSeed, 7, synth.Image, 0)
	if a.ID != ref.ID || a.Seed != ref.Seed || a.Modality != ref.Modality || a.Frames != ref.Frames || a.Entity.ID != ref.Entity.ID {
		t.Errorf("cached point %+v differs from derived %+v", a, ref)
	}
	// A different key must not serve point 7's data.
	c := s.BuildPoint(7, synth.Video, 3)
	if c.Modality != synth.Video || c.Frames != 3 || c.ID != 7 {
		t.Errorf("distinct key returned wrong point %+v", c)
	}
}

// TestBatcherSubmitZeroAllocs is the arena contract on the serving hot
// path: once pools are warm, a steady-state no-deadline Submit allocates
// nothing in the batcher (request, batch, points, and scores all reuse).
func TestBatcherSubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	b := NewBatcher(BatcherConfig{MaxBatchSize: 8, MaxWait: time.Millisecond},
		func(_ context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
			for i := range pts {
				scores[i] = 0.5
			}
			return 1, nil
		}, nil)
	defer b.Close()
	p := pt(1)
	if _, _, err := b.Submit(ctxbg, p, time.Time{}); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := b.Submit(ctxbg, p, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per steady-state Submit, want 0", allocs)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

var ctxbg = context.Background()

const fxSeed = 17

// fx is the shared end-to-end fixture: one world, one resource library, one
// featurestore, and two distinct trained models (different init seeds, so
// their scores differ bit-for-bit on essentially every point). Building it
// once keeps the suite fast; everything in it is read-only after init.
var fx struct {
	once   sync.Once
	err    error
	world  *synth.World
	store  *featurestore.Store
	modelA fusion.Predictor // install generation 1
	modelB fusion.Predictor // hot-swap generation 2
	corpus fusion.Corpus    // what both were trained on
}

func fixture(t testing.TB) {
	t.Helper()
	fx.once.Do(func() {
		fx.err = buildFixture()
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
}

func buildFixture() error {
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return err
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return err
	}
	store, err := featurestore.New(lib, 4096)
	if err != nil {
		return err
	}
	task, err := synth.TaskByName("CT1")
	if err != nil {
		return err
	}
	ds, err := synth.BuildDataset(world, task, synth.DatasetConfig{
		Seed:               7,
		NumText:            50,
		NumUnlabeledImage:  50,
		NumHandLabelPool:   400,
		NumTest:            50,
		CalibrationSamples: 2000,
	})
	if err != nil {
		return err
	}
	// Through the library, not the serving store: the store admits only
	// server-derived points, and the pool's entities are not DerivePoint's.
	vecs, err := lib.Featurize(context.Background(), mapreduce.Config{}, ds.HandLabelPool)
	if err != nil {
		return err
	}
	corpus := fusion.Corpus{Name: "hand", Vectors: vecs, Targets: fusion.HardTargets(synth.Labels(ds.HandLabelPool))}
	train := func(seed int64) (fusion.Predictor, error) {
		return fusion.TrainEarly(ctxbg, []fusion.Corpus{corpus}, fusion.Config{
			Schema: lib.Schema().Servable(),
			Model:  model.Config{Hidden: []int{8}, Epochs: 2, Seed: seed, LearningRate: 0.05},
		})
	}
	if fx.modelA, err = train(3); err != nil {
		return err
	}
	if fx.modelB, err = train(4); err != nil {
		return err
	}
	fx.world, fx.store, fx.corpus = world, store, corpus
	return nil
}

// newTestServer builds a Server over the shared fixture with a canary batch,
// wraps it in an httptest.Server, and registers cleanup.
func newTestServer(t *testing.T, bc BatcherConfig, timeout time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	fixture(t)
	canary := make([]*synth.Point, 8)
	for i := range canary {
		canary[i] = DerivePoint(fx.world, fxSeed, 100+i, synth.Image, 0)
	}
	s, err := New(Config{
		Store:   fx.store,
		World:   fx.world,
		Seed:    fxSeed,
		Batcher: bc,
		Timeout: timeout,
	}, canary)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// wantScore computes the in-process ground truth for one served point,
// featurized past the serving store.
func wantScore(t *testing.T, m fusion.Predictor, id int) float64 {
	t.Helper()
	return m.Predict(fx.store.Library().FeaturizePoint(DerivePoint(fx.world, fxSeed, id, synth.Image, 0)))
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func saveArtifact(t *testing.T, m fusion.Predictor, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := fusion.SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServedPredictionsBitIdentical is the acceptance round trip: a saved
// EarlyModel artifact, loaded through POST /admin/reload and served over
// HTTP, must return bit-identical scores to calling Predict in-process on
// the model that was saved.
func TestServedPredictionsBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	path := saveArtifact(t, fx.modelA, "a.xma")

	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}

	// Single-point requests and one multi-point request must both match
	// in-process Predict exactly.
	ids := []int{0, 1, 2, 3, 42, 9999}
	for _, id := range ids {
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict id %d: %d %s", id, resp.StatusCode, body)
		}
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if want := wantScore(t, fx.modelA, id); len(pr.Scores) != 1 || pr.Scores[0] != want {
			t.Errorf("id %d: served %v, in-process %v", id, pr.Scores, want)
		}
		if pr.Kind != fusion.KindEarly {
			t.Errorf("kind = %q", pr.Kind)
		}
	}
	batch := predictRequest{}
	for _, id := range ids {
		batch.Points = append(batch.Points, PointRequest{ID: id})
	}
	resp, body = postJSON(t, ts.URL+"/predict", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Scores) != len(ids) {
		t.Fatalf("batch returned %d scores for %d points", len(pr.Scores), len(ids))
	}
	for i, id := range ids {
		if want := wantScore(t, fx.modelA, id); pr.Scores[i] != want {
			t.Errorf("batch id %d: served %v, in-process %v", id, pr.Scores[i], want)
		}
	}
}

// TestPredictKeysRenderingsApart: one ID requested as different renderings
// (modality, frames) is different points, so each request must score its
// own rendering's vector — after each other, and side by side in one batch —
// never the cached vector of another rendering of the same ID.
func TestPredictKeysRenderingsApart(t *testing.T) {
	_, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": saveArtifact(t, fx.modelA, "a.xma")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	predict := func(reqs ...PointRequest) []float64 {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: reqs})
		var pr predictResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || len(pr.Scores) != len(reqs) {
			t.Fatalf("predict %+v: %d %s", reqs, resp.StatusCode, body)
		}
		return pr.Scores
	}
	check := func(scores []float64, reqs ...PointRequest) {
		t.Helper()
		for i, r := range reqs {
			m, _ := parseModality(r.Modality)
			want := fx.modelA.Predict(fx.store.Library().FeaturizePoint(DerivePoint(fx.world, fxSeed, r.ID, m, r.Frames)))
			if scores[i] != want {
				t.Errorf("%+v: served %v, its own rendering scores %v", r, scores[i], want)
			}
		}
	}
	for _, r := range []PointRequest{{ID: 70001, Modality: "text"}, {ID: 70001, Modality: "image"}} {
		check(predict(r), r)
	}
	batch := []PointRequest{{ID: 70002, Modality: "text"}, {ID: 70002, Modality: "image"},
		{ID: 70002, Modality: "video", Frames: 2}, {ID: 70002, Modality: "video", Frames: 5}}
	check(predict(batch...), batch...)
}

// TestHotSwapUnderLoadZeroFailures is the acceptance hot-swap test: while
// concurrent clients hammer /predict, an /admin/reload swaps model A for
// model B. Every request must succeed, and every returned score must be
// bit-identical to whichever model generation the response says scored it.
func TestHotSwapUnderLoadZeroFailures(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{QueueDepth: 4096}, 10*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	pathB := saveArtifact(t, fx.modelB, "b.xma")

	const nIDs = 16
	wantA := make([]float64, nIDs)
	wantB := make([]float64, nIDs)
	for id := 0; id < nIDs; id++ {
		wantA[id] = wantScore(t, fx.modelA, id)
		wantB[id] = wantScore(t, fx.modelB, id)
		if wantA[id] == wantB[id] {
			t.Fatalf("fixture models agree on id %d; test cannot tell generations apart", id)
		}
	}

	const (
		workers     = 8
		perWorker   = 40
		swapAtTotal = workers * perWorker / 4
	)
	var done atomic.Int64
	var failures atomic.Int64
	var sawOld, sawNew atomic.Int64
	var wg sync.WaitGroup
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := (w*perWorker + i) % nIDs
				raw, _ := json.Marshal(predictRequest{Points: []PointRequest{{ID: id}}})
				resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(raw))
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d req %d: %v", w, i, err)
					continue
				}
				var pr predictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					failures.Add(1)
					t.Errorf("worker %d req %d: status %d err %v", w, i, resp.StatusCode, err)
					continue
				}
				var want float64
				switch pr.ModelSeq {
				case 1:
					want = wantA[id]
					sawOld.Add(1)
				case 2:
					want = wantB[id]
					sawNew.Add(1)
				default:
					failures.Add(1)
					t.Errorf("worker %d req %d: model seq %d", w, i, pr.ModelSeq)
					continue
				}
				if len(pr.Scores) != 1 || pr.Scores[0] != want {
					failures.Add(1)
					t.Errorf("worker %d req %d id %d: score %v, want %v (gen %d)", w, i, id, pr.Scores, want, pr.ModelSeq)
				}
				done.Add(1)
			}
		}(w)
	}

	// Swap once a quarter of the traffic has been served, so requests
	// straddle the reload in both directions.
	for done.Load() < swapAtTotal {
		time.Sleep(time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot-swap reload: %d %s", resp.StatusCode, body)
	}
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d in-flight requests failed across the hot swap", failures.Load(), workers*perWorker)
	}
	if sawOld.Load() == 0 || sawNew.Load() == 0 {
		t.Fatalf("swap not straddled: %d old-generation, %d new-generation responses", sawOld.Load(), sawNew.Load())
	}
}

// TestNotReadyBeforeModel pins the 503 surface before the first install.
func TestNotReadyBeforeModel(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, time.Second)

	resp, _ := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: 1}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("predict before model: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before model: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz should be alive pre-model: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("readyz after install: %d", resp2.StatusCode)
	}
}

// TestReloadRejectsBadArtifact: a missing or corrupt artifact returns 422
// and the serving model keeps serving, untouched.
func TestReloadRejectsBadArtifact(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}

	resp, _ := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": filepath.Join(t.TempDir(), "nope.xma")})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("missing artifact: %d, want 422", resp.StatusCode)
	}

	corrupt := filepath.Join(t.TempDir(), "corrupt.xma")
	good := saveArtifact(t, fx.modelA, "good.xma")
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": corrupt})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("corrupt artifact: %d, want 422", resp.StatusCode)
	}

	// Old model still serving, generation unchanged.
	if cur := s.Registry().Current(); cur == nil || cur.Seq != 1 {
		t.Fatalf("current after failed reloads: %+v", cur)
	}
	resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed reloads: %d %s", resp.StatusCode, body)
	}
}

// nanModel is a Predictor whose scores are never valid probabilities; the
// canary gate must refuse to install it.
type nanModel struct{}

func (nanModel) Predict(*feature.Vector) float64 { return math.NaN() }
func (nanModel) PredictBatch(vs []*feature.Vector) []float64 {
	out := make([]float64, len(vs))
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

func TestCanaryRejectsInvalidModel(t *testing.T) {
	s, _ := newTestServer(t, BatcherConfig{}, time.Second)
	if _, err := s.Registry().Install(nanModel{}, ""); err == nil {
		t.Fatal("canary validation accepted a NaN-scoring model")
	}
	if s.Registry().Ready() {
		t.Fatal("rejected model became current")
	}
}

// TestPredictShedsWith429 pins the admission-control surface: with every
// run slot wedged in the executor and the depth-1 queue full, an excess
// request gets 429 + Retry-After, and the counter matches.
func TestPredictShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	// Replace the server's batcher with one whose executor blocks until
	// released, so the pipeline wedges deterministically.
	block := make(chan struct{})
	s.bat.Close()
	slots := cap(s.bat.slots)
	entered := make(chan struct{}, slots+1)
	s.bat = NewBatcher(BatcherConfig{QueueDepth: 1}, func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
		entered <- struct{}{}
		<-block
		return s.execBatch(ctx, pts, scores)
	}, s.met)
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()

	// Fill the pipeline: one request per run slot reaches the blocked
	// executor, then one more waits in the depth-1 queue.
	wedged := slots + 1
	results := make(chan int, wedged)
	for i := 0; i < wedged; i++ {
		id := i
		go func() {
			resp, _ := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
			results <- resp.StatusCode
		}()
		if i < slots {
			<-entered
		}
	}
	for s.bat.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	// The pipeline is full; the next request must be shed immediately.
	resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: 3}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.met.ShedQueue.Load(); got == 0 {
		t.Error("shed not counted")
	}
	close(block)
	for i := 0; i < wedged; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("wedged request %d finished with %d, want 200", i, code)
		}
	}
}

// TestMetricsEndpointEndToEnd checks the exposition after live traffic.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 5; id++ {
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"serve_requests_total 5",
		"serve_predictions_total 5",
		fmt.Sprintf("serve_model_loaded{kind=%q} 1", fusion.KindEarly),
		"serve_model_seq 1",
		"serve_latency_seconds{quantile=\"0.99\"}",
		"serve_batch_size_count",
		"serve_featurestore_hits_total ",
		"serve_featurestore_misses_total ",
		"serve_featurestore_evicted_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestBadRequestsAre400 pins client-error handling.
func TestBadRequestsAre400(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"garbage":     "{not json",
		"empty":       `{"points":[]}`,
		"badmodality": `{"points":[{"id":1,"modality":"smell"}]}`,
	} {
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestOversizeRequestsAre413 pins the request limits: a /predict naming more
// than maxPointsPerRequest points, and a body over maxBodyBytes on either
// POST endpoint, are refused before anything reaches the batcher or the
// registry.
func TestOversizeRequestsAre413(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 30*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	seq := s.Registry().Current().Seq
	many := predictRequest{Points: make([]PointRequest, maxPointsPerRequest+1)}
	for i := range many.Points {
		many.Points[i].ID = i
	}
	manyBody, err := json.Marshal(many)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", 2<<20)
	for _, tc := range []struct {
		name, path, body string
		clientErrors     uint64
	}{
		{"too many points", "/predict", string(manyBody), 1},
		{"predict body", "/predict", pad + `{"points":[{"id":1}]}`, 2},
		{"reload body", "/admin/reload", pad + `{"path":"x.xma"}`, 2},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d, want 413", tc.name, resp.StatusCode)
		}
		if got := s.Metrics().ClientErrors.Load(); got != tc.clientErrors {
			t.Errorf("%s: ClientErrors = %d, want %d", tc.name, got, tc.clientErrors)
		}
	}
	m := s.Metrics()
	if m.BatchSize.Count() != 0 || m.ShedQueue.Load() != 0 || m.Requests.Load() != 0 {
		t.Errorf("oversize requests reached the batcher: %d batches, %d shed, %d served",
			m.BatchSize.Count(), m.ShedQueue.Load(), m.Requests.Load())
	}
	if got := s.Registry().Current().Seq; got != seq {
		t.Errorf("oversize reload moved seq %d → %d", seq, got)
	}
	// The limit is inclusive: exactly maxPointsPerRequest points still score.
	many.Points = many.Points[:maxPointsPerRequest]
	if resp, body := postJSON(t, ts.URL+"/predict", many); resp.StatusCode != http.StatusOK {
		t.Errorf("%d-point request: %d %s, want 200", maxPointsPerRequest, resp.StatusCode, body)
	}
}

// quantCopy clones the fixture's early-fusion model through an artifact
// round trip (the fixture is shared and read-only) and stamps it with p.
func quantCopy(t *testing.T, p model.Precision) *fusion.EarlyModel {
	t.Helper()
	fixture(t)
	var buf bytes.Buffer
	if err := fusion.SaveLineage(&buf, fx.modelA, nil); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := fusion.LoadLineage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	em := got.(*fusion.EarlyModel)
	if err := em.SetServePrecision(p); err != nil {
		t.Fatal(err)
	}
	return em
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

// TestBuildPointMatchesDerivePoint: with no PointSource, a request point is
// exactly what DerivePoint renders under the server's seed, field for field
// (entity included), every time it is built — the featurestore keys vectors
// by (id, modality, frames) on that promise — and distinct keys render
// distinct points.
func TestBuildPointMatchesDerivePoint(t *testing.T) {
	s, _ := newTestServer(t, BatcherConfig{}, time.Second)
	keys := []struct {
		id     int
		m      synth.Modality
		frames int
	}{{7, synth.Image, 0}, {7, synth.Text, 0}, {7, synth.Video, 3}, {7, synth.Video, 4}, {8, synth.Image, 0}}
	built := make([]*synth.Point, len(keys))
	for i, k := range keys {
		built[i] = s.BuildPoint(k.id, k.m, k.frames)
		ref := DerivePoint(fx.world, fxSeed, k.id, k.m, k.frames)
		for range 2 {
			if p := s.BuildPoint(k.id, k.m, k.frames); !reflect.DeepEqual(p, ref) {
				t.Errorf("BuildPoint%v = %+v (entity %+v), DerivePoint %+v (entity %+v)", k, p, p.Entity, ref, ref.Entity)
			}
		}
	}
	for i := range built {
		for j := range i {
			if reflect.DeepEqual(built[i], built[j]) {
				t.Errorf("keys %v and %v rendered the same point", keys[i], keys[j])
			}
		}
	}
}

package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossmodal/internal/core"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/model"
	"crossmodal/internal/monitor"
	"crossmodal/internal/resource"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// Episode geometry shared by every test: the cmd/lifecycle defaults, so the
// golden log pins the same episode an operator's first `lifecycle` run
// replays.
const (
	epSeed        = 17
	epWindow      = 300
	epWindows     = 8
	epDriftWindow = 3
	epShift       = 2.5
	epDecay       = 0.35
)

// episode is one fully wired drift episode: drifting traffic, a serving
// stack replaying it, a pipeline for retraining, and a bootstrap incumbent
// installed through the registry.
type episode struct {
	traffic  *synth.Traffic
	store    *featurestore.Store
	pipe     *core.Pipeline
	srv      *serve.Server
	ts       *httptest.Server
	inc      fusion.Predictor
	bootPath string
	dir      string
}

func newEpisode(t *testing.T, simDrift bool) *episode {
	t.Helper()
	task, err := synth.TaskByName("CT1")
	if err != nil {
		t.Fatal(err)
	}
	world := synth.MustWorld(synth.DefaultConfig())
	sched := synth.DriftSchedule{Seed: epSeed, Epochs: []synth.Epoch{{N: epWindows * epWindow}}}
	if simDrift {
		sched.Epochs = []synth.Epoch{
			{N: epDriftWindow * epWindow},
			{N: (epWindows - epDriftWindow) * epWindow, TopicShift: epShift, URLShift: epShift * 0.75, Decay: epDecay},
		}
	}
	traffic, err := synth.NewTraffic(world, task, sched)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		t.Fatal(err)
	}
	store, err := featurestore.New(lib, 65536)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.StreamMining = true
	opts.Workers = 1
	opts.Seed = epSeed
	opts.MaxGraphSeeds = 1200
	opts.GraphDevNodes = 500
	opts.Graph.MaxCandidates = 120
	opts.Model = model.Config{Epochs: 5, LearningRate: 0.02, Seed: epSeed, Workers: 1}
	pipe, err := core.NewPipeline(lib, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ds, err := traffic.FreshDataset(0, epDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := pipe.Curate(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := pipe.Train(ctx, cur, pipe.DefaultTrainSpec())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bootPath := filepath.Join(dir, "bootstrap.xma")
	if err := fusion.SaveFileLineage(bootPath, inc, &fusion.Lineage{
		Task: task.Name, Trigger: "bootstrap", Seed: epSeed,
	}); err != nil {
		t.Fatal(err)
	}

	canary := make([]*synth.Point, 48)
	for i := range canary {
		canary[i] = traffic.Point(1<<30 + i)
	}
	srv, err := serve.New(serve.Config{
		Store:   store,
		World:   world,
		Seed:    epSeed,
		Workers: 1,
		PointSource: func(id int, _ synth.Modality, _ int) *synth.Point {
			return traffic.Point(id)
		},
	}, canary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if _, err := srv.Registry().LoadArtifact(bootPath); err != nil {
		t.Fatal(err)
	}
	return &episode{
		traffic: traffic, store: store, pipe: pipe, srv: srv, ts: ts,
		inc: inc, bootPath: bootPath, dir: dir,
	}
}

// epDatasetConfig mirrors cmd/lifecycle's -scale 0.05 sizing.
func epDatasetConfig() synth.DatasetConfig {
	cfg := synth.DefaultDatasetConfig()
	cfg.Seed = epSeed
	cfg.NumText = 1000
	cfg.NumUnlabeledImage = 400
	cfg.NumHandLabelPool = 400
	cfg.NumTest = 250
	return cfg
}

func (ep *episode) controllerConfig() Config {
	return Config{
		Traffic:       ep.traffic,
		Store:         ep.store,
		Pipe:          ep.pipe,
		BaseURL:       ep.ts.URL,
		Incumbent:     ep.inc,
		IncumbentPath: ep.bootPath,
		WindowSize:    epWindow,
		Retrain:       epDatasetConfig(),
		ArtifactDir:   ep.dir,
		Seed:          epSeed,
	}
}

// TestLifecycleGolden replays the fixed-seed drift episode end to end and
// pins the complete event log against testdata/golden_lifecycle.json. Run
// with -update to rewrite the golden after an intentional behavior change.
func TestLifecycleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ep := newEpisode(t, true)
	ctrl, err := New(ep.controllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if res.Detections == 0 {
		t.Fatal("injected drift was never detected")
	}
	if res.Promotions == 0 {
		t.Fatal("no candidate was promoted")
	}
	if res.FinalSeq < 2 {
		t.Fatalf("final seq %d, want >= 2 (bootstrap is seq 1)", res.FinalSeq)
	}

	// The hot swap must be visible in the serving registry, carrying the
	// drift lineage.
	cur := ep.srv.Registry().Current()
	if cur == nil {
		t.Fatal("registry empty after run")
	}
	if cur.Seq != res.FinalSeq {
		t.Errorf("registry seq %d != result final seq %d", cur.Seq, res.FinalSeq)
	}
	if cur.Lineage == nil {
		t.Fatal("promoted artifact lost its lineage")
	}
	if !strings.HasPrefix(cur.Lineage.Trigger, "drift:") {
		t.Errorf("promoted lineage trigger %q, want drift:*", cur.Lineage.Trigger)
	}
	if cur.Lineage.Parent != ep.bootPath {
		t.Errorf("promoted lineage parent %q, want %q", cur.Lineage.Parent, ep.bootPath)
	}

	got, err := json.MarshalIndent(res.Events, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden_lifecycle.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("event log deviates from golden (run with -update if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLifecycleZeroDriftStaysQuiet is the control arm: on a static world the
// controller must never retrain — the false-alarm budget of the detectors
// composed with the Consecutive streak requirement.
func TestLifecycleZeroDriftStaysQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ep := newEpisode(t, false)
	ctrl, err := New(ep.controllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 0 || res.Retrains != 0 || res.Promotions != 0 {
		t.Fatalf("static world: detections=%d retrains=%d promotions=%d, want all zero\nevents: %+v",
			res.Detections, res.Retrains, res.Promotions, res.Events)
	}
	for _, e := range res.Events {
		if e.Type != EventReference {
			t.Errorf("unexpected %s event on static world: %+v", e.Type, e)
		}
	}
	if got := ep.srv.Registry().Current().Seq; got != 1 {
		t.Errorf("registry seq %d after quiet run, want 1 (bootstrap untouched)", got)
	}
}

// TestLifecycleCrashMidRetrainConverges: the first two training attempts at
// the first tripped window die (simulated process crash before any artifact
// is written). The incumbent must keep serving, the failures must be logged,
// and the controller must converge on the retry.
func TestLifecycleCrashMidRetrainConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ep := newEpisode(t, true)
	cfg := ep.controllerConfig()
	var crashes int
	firstTrip := -1
	cfg.RetrainHook = func(window, attempt int) error {
		if firstTrip < 0 {
			firstTrip = window
		}
		if window == firstTrip && attempt <= 2 {
			crashes++
			return fmt.Errorf("simulated crash mid-retrain")
		}
		return nil
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if crashes != 2 {
		t.Fatalf("hook crashed %d times, want 2", crashes)
	}
	var errEvents, retrainEvents int
	for _, e := range res.Events {
		switch e.Type {
		case EventRetrainError:
			errEvents++
		case EventRetrain:
			retrainEvents++
		}
	}
	if errEvents != 2 {
		t.Errorf("%d retrain-error events, want 2", errEvents)
	}
	if retrainEvents == 0 {
		t.Error("controller never recovered with a successful retrain")
	}
	if res.Promotions == 0 {
		t.Error("controller did not converge to a promotion after crashes")
	}
	// The incumbent was never displaced by a crashed attempt: every serving
	// generation in the registry came from a completed, checksummed artifact.
	cur := ep.srv.Registry().Current()
	if cur == nil {
		t.Fatal("registry empty after crash run")
	}
	if _, _, _, err := fusion.LoadFileLineage(cur.Path); err != nil {
		t.Errorf("serving artifact %s does not load cleanly: %v", cur.Path, err)
	}
}

// TestControllerConfigValidation pins the fail-fast paths.
func TestControllerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	ep := Config{BaseURL: "x", ArtifactDir: "y"}
	if _, err := New(ep); err == nil {
		t.Error("config without traffic accepted")
	}
}

// TestScoreHistMatchesServeHistogram pins the controller's score binning to
// the serve_scores histogram operators read off /metrics: same nineteen
// edges, and a score sitting exactly on an edge lands in that edge's bucket
// on both sides.
func TestScoreHistMatchesServeHistogram(t *testing.T) {
	xs := []float64{0, 0.05, 0.1, 0.95, 1}
	rng := rand.New(rand.NewSource(epSeed))
	for i := 0; i < 500; i++ {
		xs = append(xs, rng.Float64())
	}
	hist := serve.NewMetrics().Scores
	for _, x := range xs {
		hist.Observe(x)
	}
	bounds, counts := hist.Buckets()
	scoreEdges := monitor.ScoreEdges()
	if len(bounds) != len(scoreEdges) {
		t.Fatalf("serve exposes %d score edges, controller bins on %d", len(bounds), len(scoreEdges))
	}
	for i := range bounds {
		if bounds[i] != scoreEdges[i] {
			t.Fatalf("edge %d: serve %v, controller %v", i, bounds[i], scoreEdges[i])
		}
	}
	got := monitor.HistCounts(scoreEdges, xs)
	if len(got) != len(counts) {
		t.Fatalf("%d buckets, serve has %d", len(got), len(counts))
	}
	for i, c := range counts {
		if got[i] != float64(c) {
			t.Errorf("bucket %d: HistCounts %v, serve histogram %d", i, got[i], c)
		}
	}
}

// TestStepReadsBackServedVectors pins the one observation path: the vectors
// a window's snapshots are taken from are the very vectors the server put in
// the shared store while scoring that window, read back without one miss.
func TestStepReadsBackServedVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ep := newEpisode(t, false)
	ctrl, err := New(ep.controllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pts := ep.traffic.Window(0, epWindow)
	h0, m0, _ := ep.store.Stats()
	_, vecs, err := ctrl.observe(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1, _ := ep.store.Stats()
	// Serving the window and reading it back touch every point twice; the
	// server's pass takes all the misses there are to take.
	if h1-h0+m1-m0 != 2*epWindow || h1-h0 < epWindow {
		t.Fatalf("window cost %d hits / %d misses, want the %d-point read-back to be all hits",
			h1-h0, m1-m0, epWindow)
	}
	direct, err := ep.store.Featurize(ctx, mapreduce.Config{Workers: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, m2, _ := ep.store.Stats(); m2 != m1 {
		t.Fatalf("direct featurization of the served window missed %d times", m2-m1)
	}
	if len(vecs) != len(direct) {
		t.Fatalf("observed %d vectors, store serves %d", len(vecs), len(direct))
	}
	for i := range direct {
		if vecs[i] != direct[i] {
			t.Fatalf("point %d: observed vector is not the cached one the server used", i)
		}
	}
}

// TestScoreQuantile pins the adaptive shadow threshold helper.
func TestScoreQuantile(t *testing.T) {
	if got := scoreQuantile(nil, 0.9); got != 0.5 {
		t.Errorf("empty quantile = %v, want 0.5", got)
	}
	s := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if got := scoreQuantile(s, 0.5); got != 0.5 {
		t.Errorf("median = %v, want 0.5", got)
	}
	if got := scoreQuantile([]float64{0, 0, 0}, 0.9); got != 0.01 {
		t.Errorf("all-zero quantile = %v, want clamped 0.01", got)
	}
}

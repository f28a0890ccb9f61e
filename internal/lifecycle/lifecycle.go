// Package lifecycle closes the loop the paper's deployment story assumes
// around the static pipeline: a controller that watches serving-time feature
// and score distributions for drift, triggers re-mining and retraining on a
// fresh window when a detector trips, shadow-scores the candidate against the
// incumbent on live-replayed traffic, and promotes it through the serving
// registry's canary-validated hot swap only on metric non-regression.
// Snorkel DryBell runs on TFX precisely so models are re-mined and refreshed
// as the organization's data shifts (§2.4); "Changing Modalities" treats that
// shift as the normal operating condition. This package is the composition
// layer over internal/monitor (detection + shadow comparison), internal/core
// (re-mine + retrain), internal/fusion (lineage-stamped artifacts), and
// internal/serve (canary-gated /admin/reload).
//
// Everything is virtual-time deterministic: windows are counted, not
// clocked; every seed derives from (Config.Seed, window, attempt); events
// carry no timestamps. The same traffic schedule replays the same event log
// bit for bit — the property the golden lifecycle test pins.
package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"crossmodal/internal/core"
	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/model"
	"crossmodal/internal/monitor"
	"crossmodal/internal/resource"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

// Event types, in the order a full episode emits them.
const (
	EventReference    = "reference"     // baseline window installed
	EventDrift        = "drift"         // tracker tripped
	EventRetrain      = "retrain"       // candidate trained
	EventRetrainError = "retrain-error" // training attempt failed (a crash)
	EventShadow       = "shadow"        // candidate vs incumbent comparison done
	EventPromote      = "promote"       // candidate hot-swapped (Seq bump)
	EventReject       = "reject"        // candidate regressed in shadow; kept incumbent
	EventRollback     = "rollback"      // serving canary refused the artifact
)

// Event is one entry of the controller's decision log. No wall-clock
// anywhere: Window is the virtual time base.
type Event struct {
	Window  int    `json:"window"`
	Type    string `json:"type"`
	Channel string `json:"channel,omitempty"` // drifted channels, comma-joined
	Detail  string `json:"detail,omitempty"`
	Seq     uint64 `json:"seq,omitempty"` // serving generation after a promote
}

// Config assembles a Controller.
type Config struct {
	// Traffic is the drifting world the server replays; the server's
	// Config.PointSource must be Traffic-derived so both see the same
	// points.
	Traffic *synth.Traffic
	// Store is the serving featurestore. After scoring a window the
	// controller reads the window's vectors back from it by key for the
	// feature-drift snapshots: cache hits on the very vectors just served.
	// Only an evicted entry's point is derived again, and featurization is
	// deterministic in the point, so it recomputes to the same values.
	Store *featurestore.Store
	// Pipe re-mines and retrains candidates.
	Pipe *core.Pipeline
	// BaseURL is the serving endpoint ("http://127.0.0.1:port").
	BaseURL string
	// Client performs HTTP; nil uses http.DefaultClient.
	Client *http.Client

	// Incumbent is the currently serving model (the bootstrap artifact),
	// and IncumbentPath its artifact path — the shadow baseline and the
	// Parent stamped into candidate lineage.
	Incumbent     fusion.Predictor
	IncumbentPath string

	// WindowSize is the number of traffic points per observation window
	// (default 400).
	WindowSize int

	// Retrain sizes the fresh dataset each retraining attempt draws; its
	// Seed field is overridden per (window, attempt).
	Retrain synth.DatasetConfig

	// ArtifactDir receives candidate artifacts.
	ArtifactDir string
	// Seed drives every controller decision stream.
	Seed int64

	// RetrainHook, when set, runs before each training attempt; an error
	// simulates a crash mid-retrain (the crash seam). The attempt
	// is logged as retrain-error and retried.
	RetrainHook func(window, attempt int) error
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 400
	}
	return c
}

const (
	// batchSize is how many points ride one /predict request.
	batchSize = 32
	// lanes is how many /predict requests scoreWindow keeps in flight. It is
	// net/http's DefaultMaxIdleConnsPerHost, so the default client keeps one
	// connection alive per lane between windows.
	lanes = 2
	// precisionMargin and recallMargin bound the regression a candidate may
	// show in shadow scoring and still promote.
	precisionMargin = 0.1
	recallMargin    = 0.1
	// maxRetrainAttempts bounds back-to-back training attempts per tripped
	// window before giving up until the next trip.
	maxRetrainAttempts = 3
	// cooldownWindows suppresses new retrains for this many windows after a
	// promotion or rejection, letting the new baseline settle.
	cooldownWindows = 2
)

func (c Config) validate() error {
	switch {
	case c.Traffic == nil:
		return fmt.Errorf("lifecycle: nil traffic")
	case c.Store == nil:
		return fmt.Errorf("lifecycle: nil featurestore")
	case c.Pipe == nil:
		return fmt.Errorf("lifecycle: nil pipeline")
	case c.BaseURL == "":
		return fmt.Errorf("lifecycle: empty base URL")
	case c.Incumbent == nil:
		return fmt.Errorf("lifecycle: nil incumbent model")
	case c.ArtifactDir == "":
		return fmt.Errorf("lifecycle: empty artifact dir")
	}
	return nil
}

// Result summarizes one controller run.
type Result struct {
	Events     []Event `json:"events"`
	Windows    int     `json:"windows"`
	Detections int     `json:"detections"`
	Retrains   int     `json:"retrains"`
	Promotions int     `json:"promotions"`
	Rejections int     `json:"rejections"`
	FinalSeq   uint64  `json:"final_seq"`
}

// Controller drives the closed loop. Not safe for concurrent use.
type Controller struct {
	cfg     Config
	tracker *monitor.Tracker

	incumbent     fusion.Predictor
	incumbentPath string

	catRef    monitor.CatSnapshot // reference categorical frequencies
	refCounts []float64           // reference window's per-bucket score counts

	cooldown int
	needRef  bool // rebaseline on the next window (startup, post-promotion)

	lane [lanes]lane        // scoreWindow's request streams; lane 0 also posts reloads
	keys []featurestore.Key // observe's store keys, reused

	res Result
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:           cfg,
		tracker:       monitor.NewTracker(monitor.DriftConfig{}),
		incumbent:     cfg.Incumbent,
		incumbentPath: cfg.IncumbentPath,
		needRef:       true,
	}, nil
}

// Bootstrap wires the drift episode cmd/lifecycle and this package's tests
// replay: over cfg.Traffic, drawn from the base world, it builds the
// retraining pipeline, trains the bootstrap incumbent on epoch 0 (a
// cfg.Retrain-sized draw at cfg.Seed) and serves it. The caller sets
// cfg's Traffic, WindowSize, Retrain, ArtifactDir and Seed; Bootstrap
// returns cfg with Store, Pipe, Incumbent and IncumbentPath filled, and the
// server whose Handler the caller exposes at cfg.BaseURL and then closes.
func Bootstrap(ctx context.Context, world *synth.World, cfg Config, workers int) (Config, *serve.Server, error) {
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return Config{}, nil, err
	}
	if cfg.Store, err = featurestore.New(lib, 65536); err != nil {
		return Config{}, nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers, opts.Seed = workers, cfg.Seed
	opts.MaxGraphSeeds, opts.GraphDevNodes, opts.Graph.MaxCandidates = 1200, 500, 120
	opts.Model = model.Config{Epochs: 5, LearningRate: 0.02, Seed: cfg.Seed, Workers: workers}
	if cfg.Pipe, err = core.NewPipeline(lib, opts); err != nil {
		return Config{}, nil, err
	}
	cfg.Retrain.Seed = cfg.Seed
	ds, err := cfg.Traffic.FreshDataset(0, cfg.Retrain)
	if err != nil {
		return Config{}, nil, err
	}
	boot, err := cfg.Pipe.Run(ctx, ds)
	if err != nil {
		return Config{}, nil, err
	}
	cfg.Incumbent, cfg.IncumbentPath = boot.Predictor, filepath.Join(cfg.ArtifactDir, "bootstrap.xma")
	lg := &fusion.Lineage{Task: cfg.Traffic.Task().Name, Trigger: "bootstrap", Seed: cfg.Seed}
	if err := fusion.SaveFileLineage(cfg.IncumbentPath, cfg.Incumbent, lg); err != nil {
		return Config{}, nil, err
	}

	// Canary IDs sit far past the schedule, where the final regime persists:
	// they never collide with live window points, and after a promotion they
	// exercise the candidate on current-regime traffic.
	canary := make([]*synth.Point, 48)
	for i := range canary {
		canary[i] = cfg.Traffic.Point(1<<30 + i)
	}
	srv, err := serve.New(serve.Config{
		Store: cfg.Store, World: world, Seed: cfg.Seed, Workers: workers, Timeout: 5 * time.Second,
		PointSource: func(id int, _ synth.Modality, _ int) *synth.Point { return cfg.Traffic.Point(id) },
	}, canary)
	if err != nil {
		return Config{}, nil, err
	}
	if _, err := srv.Registry().LoadArtifact(cfg.IncumbentPath); err != nil {
		srv.Close()
		return Config{}, nil, fmt.Errorf("install bootstrap artifact: %w", err)
	}
	return cfg, srv, nil
}

// Run replays the full traffic schedule window by window and returns the
// event log.
func (c *Controller) Run(ctx context.Context) (*Result, error) {
	windows := c.cfg.Traffic.Total() / c.cfg.WindowSize
	if windows == 0 {
		return nil, fmt.Errorf("lifecycle: traffic (%d points) smaller than one window (%d)",
			c.cfg.Traffic.Total(), c.cfg.WindowSize)
	}
	for w := 0; w < windows; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := c.step(ctx, w); err != nil {
			return nil, fmt.Errorf("lifecycle: window %d: %w", w, err)
		}
	}
	c.res.Windows = windows
	out := c.res
	return &out, nil
}

// step observes one traffic window and reacts.
func (c *Controller) step(ctx context.Context, w int) error {
	first, n := w*c.cfg.WindowSize, c.cfg.WindowSize
	scores, vecs, err := c.observe(ctx, first, n, c.cfg.Traffic.Point)
	if err != nil {
		return err
	}
	snap := monitor.NumericSnapshot(vecs)
	snap["serve_score"] = scores
	cat := monitor.CategoricalSnapshot(vecs)
	counts := monitor.HistCounts(monitor.ScoreEdges(), scores)

	if c.needRef {
		c.tracker.SetReference(snap)
		c.catRef = cat
		c.refCounts = counts
		c.needRef = false
		c.emit(Event{Window: w, Type: EventReference,
			Detail: fmt.Sprintf("%d channels, %d points", len(snap)+len(cat), n)})
		return nil
	}

	// The categorical channels (topic mix, URL groups, rule firings) and the
	// binned score histogram have no raw-sample form, so they ride along as
	// extra verdicts and share the tracker's streak logic.
	extra := monitor.DetectCategoricalDrift(monitor.DriftConfig{}, c.catRef, cat)
	extra = append(extra, monitor.HistDrift("scores_hist", len(scores), c.refCounts, counts))
	verdicts, tripped := c.tracker.Observe(snap, extra...)

	if c.cooldown > 0 {
		c.cooldown--
		return nil
	}
	if !tripped {
		return nil
	}

	channels := strings.Join(c.tracker.TrippedChannels(), ",")
	c.res.Detections++
	c.emit(Event{Window: w, Type: EventDrift, Channel: channels,
		Detail: monitor.Summarize(verdicts)})
	// Only the shadow comparison needs the points themselves, for labels.
	pts := c.cfg.Traffic.Window(first, n)
	return c.retrainAndMaybePromote(ctx, w, pts, vecs, scores, channels)
}

// observe serves traffic IDs [first, first+n) through /predict and reads the
// vectors the server featurized for them back from the shared store by key.
// The server stored exactly these keys a moment ago, so point derives only
// a point whose entry was evicted since.
func (c *Controller) observe(ctx context.Context, first, n int, point func(id int) *synth.Point) ([]float64, []*feature.Vector, error) {
	scores, err := c.scoreWindow(ctx, first, n)
	if err != nil {
		return nil, nil, err
	}
	c.keys = c.keys[:0]
	for id := first; id < first+n; id++ {
		c.keys = append(c.keys, featurestore.Key{ID: id, Modality: synth.Image})
	}
	vecs, err := c.cfg.Store.FeaturizeKeys(ctx, mapreduce.Config{Workers: c.cfg.Pipe.Options().Workers}, c.keys,
		func(i int) *synth.Point { return point(first + i) })
	return scores, vecs, err
}

// retrainAndMaybePromote runs the re-mine → retrain → shadow → promote arm
// of the loop, retrying training up to maxRetrainAttempts.
func (c *Controller) retrainAndMaybePromote(ctx context.Context, w int, pts []*synth.Point, vecs []*feature.Vector, scores []float64, channels string) error {
	for attempt := 1; attempt <= maxRetrainAttempts; attempt++ {
		if hook := c.cfg.RetrainHook; hook != nil {
			if err := hook(w, attempt); err != nil {
				c.emit(Event{Window: w, Type: EventRetrainError,
					Detail: fmt.Sprintf("attempt %d: %v", attempt, err)})
				continue
			}
		}
		cand, lfCount, err := c.retrain(ctx, w, attempt)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			c.emit(Event{Window: w, Type: EventRetrainError,
				Detail: fmt.Sprintf("attempt %d: %v", attempt, err)})
			continue
		}
		c.res.Retrains++
		c.emit(Event{Window: w, Type: EventRetrain,
			Detail: fmt.Sprintf("attempt %d, %d LFs", attempt, lfCount)})
		return c.shadowAndPromote(ctx, w, pts, vecs, scores, channels, cand)
	}
	// Out of attempts: give up until the next trip. The streak persists,
	// so a sustained shift re-trips on the next window.
	return nil
}

// retrain draws a fresh dataset from the current traffic regime and runs
// curation + training. The dataset seed differs per (window, attempt) so a
// retry is a genuinely fresh draw.
func (c *Controller) retrain(ctx context.Context, w, attempt int) (fusion.Predictor, int, error) {
	epoch := c.cfg.Traffic.EpochOf((w+1)*c.cfg.WindowSize - 1)
	dsCfg := c.cfg.Retrain
	dsCfg.Seed = c.cfg.Seed ^ int64(w)<<8 ^ int64(attempt)
	ds, err := c.cfg.Traffic.FreshDataset(epoch, dsCfg)
	if err != nil {
		return nil, 0, err
	}
	cur, err := c.cfg.Pipe.Curate(ctx, ds)
	if err != nil {
		return nil, 0, err
	}
	cand, err := c.cfg.Pipe.Train(ctx, cur, c.cfg.Pipe.DefaultTrainSpec())
	if err != nil {
		return nil, 0, err
	}
	return cand, cur.Report.LFCount, nil
}

// shadowAndPromote compares the candidate against the incumbent on the
// tripped window's live traffic (pts, the vecs served for them and the
// incumbent's served scores) and promotes through /admin/reload on
// non-regression.
func (c *Controller) shadowAndPromote(ctx context.Context, w int, pts []*synth.Point, vecs []*feature.Vector, scores []float64, channels string, cand fusion.Predictor) error {
	// A fixed 0.5 cut can sit above everything a low-base-rate model emits,
	// making every estimate vacuously zero. Anchor the flag threshold to the
	// incumbent's own score distribution on this window instead: flag its
	// top decile. The server scored the window with the incumbent, and a
	// served score is PredictBatch's bit for bit, so the served scores are
	// also the incumbent's side of the comparison: only the candidate scores
	// the window here.
	shadowCfg := monitor.Config{
		Seed:      c.cfg.Seed ^ int64(w)<<16,
		Threshold: scoreQuantile(scores, 0.9),
	}
	cmp, err := monitor.CompareScored("incumbent", scores, "candidate", cand,
		pts, vecs, func(p *synth.Point) int8 { return p.Label }, shadowCfg)
	if err != nil {
		return err
	}
	inc, cnd := cmp.A, cmp.B
	c.emit(Event{Window: w, Type: EventShadow,
		Detail: fmt.Sprintf("incumbent p=%.3f r=%.3f, candidate p=%.3f r=%.3f, disagree=%.3f",
			inc.Precision, inc.RecallProxy, cnd.Precision, cnd.RecallProxy, cmp.Disagreement)})

	pass := cnd.Precision >= inc.Precision-precisionMargin &&
		cnd.RecallProxy >= inc.RecallProxy-recallMargin
	if !pass {
		c.res.Rejections++
		c.cooldown = cooldownWindows
		c.emit(Event{Window: w, Type: EventReject,
			Detail: fmt.Sprintf("candidate regressed beyond margins (p %.3f vs %.3f, r %.3f vs %.3f)",
				cnd.Precision, inc.Precision, cnd.RecallProxy, inc.RecallProxy)})
		return nil
	}

	path := filepath.Join(c.cfg.ArtifactDir, fmt.Sprintf("candidate-w%03d.xma", w))
	lg := &fusion.Lineage{
		Task:    c.cfg.Traffic.Task().Name,
		Trigger: "drift:" + channels,
		Window:  w,
		Parent:  c.incumbentPath,
		Seed:    c.cfg.Seed ^ int64(w)<<8,
	}
	if err := fusion.SaveFileLineage(path, cand, lg); err != nil {
		return err
	}
	seq, reloadErr := c.reload(ctx, path)
	if reloadErr != nil {
		// The serving canary refused the artifact: the incumbent keeps
		// serving untouched. Cool down rather than hammering the gate.
		c.res.Rejections++
		c.cooldown = cooldownWindows
		c.emit(Event{Window: w, Type: EventRollback,
			Detail: fmt.Sprintf("serving canary refused artifact: %v", reloadErr)})
		return nil
	}
	c.res.Promotions++
	c.res.FinalSeq = seq
	c.incumbent = cand
	c.incumbentPath = path
	c.cooldown = cooldownWindows
	// The world under the model changed and so did the model: rebaseline
	// detection on the next window.
	c.needRef = true
	c.emit(Event{Window: w, Type: EventPromote, Channel: channels, Seq: seq,
		Detail: filepath.Base(path)})
	return nil
}

// scoreWindow posts traffic IDs [first, first+n) through /predict in
// batchSize chunks and returns their scores in traffic order. Traffic points
// are image points, so an ID is the whole request. Chunk k rides lane k mod
// lanes, each lane with one request in flight, and its reply decodes straight
// into scores[k·batchSize:], so the order of the scores is fixed by offset,
// not by which reply lands first. The first error cancels the other lane and
// is the one returned; either way scoreWindow returns only after both lanes
// are done, so windows never overlap.
func (c *Controller) scoreWindow(ctx context.Context, first, n int) ([]float64, error) {
	scores := make([]float64, n)
	chunks := (n + batchSize - 1) / batchSize
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for l := range min(lanes, chunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := l; k < chunks; k += lanes {
				lo := k * batchSize
				if err := c.scoreChunk(ctx, &c.lane[l], first+lo, scores[lo:min(lo+batchSize, n)]); err != nil {
					cancel(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return scores, nil
}

// lane is one stream of /predict requests: its request slice and its request
// and reply bodies are reused from chunk to chunk.
type lane struct {
	batch struct {
		Points []serve.PointRequest `json:"points"`
	}
	body, reply bytes.Buffer
}

// scoreChunk posts IDs [first, first+len(out)) on lane l and decodes their
// scores into out.
func (c *Controller) scoreChunk(ctx context.Context, l *lane, first int, out []float64) error {
	l.batch.Points = l.batch.Points[:0]
	for id := first; id < first+len(out); id++ {
		l.batch.Points = append(l.batch.Points, serve.PointRequest{ID: id, Modality: string(synth.Image)})
	}
	// Unmarshal appends to a slice it empties first, and out's capacity ends
	// at its length, so a reply of the right length lands in out itself and
	// a longer one in a fresh array, never in another chunk's scores.
	pr := struct {
		Scores []float64 `json:"scores"`
	}{Scores: out[:0:len(out)]}
	if err := c.post(ctx, l, "/predict", &l.batch, &pr); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	if len(pr.Scores) != len(out) {
		return fmt.Errorf("predict returned %d scores for %d points", len(pr.Scores), len(out))
	}
	return nil
}

// reload POSTs /admin/reload and returns the new serving generation.
func (c *Controller) reload(ctx context.Context, path string) (uint64, error) {
	var rr struct {
		Seq uint64 `json:"seq"`
	}
	err := c.post(ctx, &c.lane[0], "/admin/reload", map[string]string{"path": path}, &rr)
	return rr.Seq, err
}

// post sends in as a JSON POST to the serving endpoint and decodes a 200
// reply into out; any other status is an error carrying the reply body. The
// request and reply bodies reuse lane l's two buffers.
func (c *Controller) post(ctx context.Context, l *lane, path string, in, out any) error {
	l.body.Reset()
	if err := json.NewEncoder(&l.body).Encode(in); err != nil {
		return err
	}
	l.body.Truncate(l.body.Len() - 1) // Encode's newline: send what Marshal would
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(l.body.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	l.reply.Reset()
	_, err = l.reply.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%d %s", resp.StatusCode, bytes.TrimSpace(l.reply.Bytes()))
	}
	return json.Unmarshal(l.reply.Bytes(), out)
}

// scoreQuantile returns the q-quantile of scores (sorted copy, nearest
// rank), clamped into (0, 1) so it is always a usable flag threshold.
func scoreQuantile(scores []float64, q float64) float64 {
	if len(scores) == 0 {
		return 0.5
	}
	s := append([]float64(nil), scores...)
	sort.Float64s(s)
	v := s[int(q*float64(len(s)-1))]
	return math.Min(math.Max(v, 0.01), 0.99)
}

// emit appends one event to the log.
func (c *Controller) emit(e Event) {
	c.res.Events = append(c.res.Events, e)
}

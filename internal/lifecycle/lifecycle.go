// Package lifecycle closes the loop the paper's deployment story assumes
// around the static pipeline: a controller that watches serving-time feature
// and score distributions for drift, triggers streamed re-mining and
// retraining on a fresh window when a detector trips, shadow-scores the
// candidate against the incumbent on live-replayed traffic, and promotes it
// through the serving registry's canary-validated hot swap only on metric
// non-regression. Snorkel DryBell runs on TFX precisely so models are
// re-mined and refreshed as the organization's data shifts (§2.4);
// "Changing Modalities" treats that shift as the normal operating
// condition. This package is the composition layer over internal/monitor
// (detection + shadow comparison), internal/core (re-mine + retrain),
// internal/fusion (lineage-stamped artifacts), and internal/serve
// (canary-gated /admin/reload).
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
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strings"

	"crossmodal/internal/core"
	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/monitor"
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
	// controller reads the window's vectors back through it for the
	// feature-drift snapshots: cache hits on the very vectors just served
	// (featurization is deterministic in the point, so an evicted entry
	// recomputes to the same values).
	Store *featurestore.Store
	// Pipe re-mines and retrains candidates (StreamMining should be on).
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
	// (default 400); BatchSize how many points ride one /predict request
	// (default 32).
	WindowSize int
	BatchSize  int

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
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

const (
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
	pts := c.cfg.Traffic.Window(w*c.cfg.WindowSize, c.cfg.WindowSize)
	scores, vecs, err := c.observe(ctx, pts)
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
			Detail: fmt.Sprintf("%d channels, %d points", len(snap)+len(cat), len(pts))})
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
	return c.retrainAndMaybePromote(ctx, w, pts, vecs, channels)
}

// observe serves pts through /predict and reads the vectors the server
// featurized for them back through the shared store: the server put exactly
// these IDs there a moment ago, so the read-back is all cache hits.
func (c *Controller) observe(ctx context.Context, pts []*synth.Point) ([]float64, []*feature.Vector, error) {
	scores, err := c.scoreWindow(ctx, pts)
	if err != nil {
		return nil, nil, err
	}
	vecs, err := c.cfg.Store.Featurize(ctx, mapreduce.Config{Workers: c.cfg.Pipe.Options().Workers}, pts)
	return scores, vecs, err
}

// retrainAndMaybePromote runs the re-mine → retrain → shadow → promote arm
// of the loop, retrying training up to maxRetrainAttempts.
func (c *Controller) retrainAndMaybePromote(ctx context.Context, w int, pts []*synth.Point, vecs []*feature.Vector, channels string) error {
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
		return c.shadowAndPromote(ctx, w, pts, vecs, channels, cand)
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
// tripped window's live traffic (pts and the vecs served for them) and
// promotes through /admin/reload on non-regression.
func (c *Controller) shadowAndPromote(ctx context.Context, w int, pts []*synth.Point, vecs []*feature.Vector, channels string, cand fusion.Predictor) error {
	// A fixed 0.5 cut can sit above everything a low-base-rate model emits,
	// making every estimate vacuously zero. Anchor the flag threshold to the
	// incumbent's own score distribution on this window instead: flag its
	// top decile.
	shadowCfg := monitor.Config{
		Seed:      c.cfg.Seed ^ int64(w)<<16,
		Threshold: scoreQuantile(c.incumbent.PredictBatch(vecs), 0.9),
	}
	cmp, err := monitor.Compare("incumbent", c.incumbent, "candidate", cand,
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

// scoreWindow posts the window's points through /predict in BatchSize
// chunks and returns their scores in traffic order.
func (c *Controller) scoreWindow(ctx context.Context, pts []*synth.Point) ([]float64, error) {
	scores := make([]float64, 0, len(pts))
	for lo := 0; lo < len(pts); lo += c.cfg.BatchSize {
		hi := lo + c.cfg.BatchSize
		if hi > len(pts) {
			hi = len(pts)
		}
		batch := struct {
			Points []map[string]any `json:"points"`
		}{}
		for _, p := range pts[lo:hi] {
			batch.Points = append(batch.Points, map[string]any{"id": p.ID, "modality": string(p.Modality)})
		}
		var pr struct {
			Scores []float64 `json:"scores"`
		}
		if err := c.post(ctx, "/predict", batch, &pr); err != nil {
			return nil, fmt.Errorf("predict: %w", err)
		}
		if len(pr.Scores) != hi-lo {
			return nil, fmt.Errorf("predict returned %d scores for %d points", len(pr.Scores), hi-lo)
		}
		scores = append(scores, pr.Scores...)
	}
	return scores, nil
}

// reload POSTs /admin/reload and returns the new serving generation.
func (c *Controller) reload(ctx context.Context, path string) (uint64, error) {
	var rr struct {
		Seq uint64 `json:"seq"`
	}
	err := c.post(ctx, "/admin/reload", map[string]string{"path": path}, &rr)
	return rr.Seq, err
}

// post sends in as a JSON POST to the serving endpoint and decodes a 200
// reply into out; any other status is an error carrying the reply body.
func (c *Controller) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%d %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
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

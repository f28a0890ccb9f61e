// Package serve is the online inference subsystem: it exposes trained
// fusion models over HTTP with atomic model hot-swap, bounded admission
// control with deadline-aware load shedding, and a metrics surface.
//
// The paper's pipeline terminates in a production classifier serving live
// traffic (§2.4 deploys the fused model behind TFX-style serving infra);
// this package is that deployment stage. A request names a data point of
// the new modality; the server featurizes it through the shared
// featurestore (paper §2.3's precomputed-feature services), and returns
// P(y = +1). A request, however many points it names, takes one of
// GOMAXPROCS run slots and scores itself on its handler's goroutine,
// featurization included unless it is large; each response is scored by one
// model generation.
//
// Endpoints:
//
//	POST /predict       {"points":[{"id":1,"modality":"image"}]} → scores
//	POST /admin/reload  {"path":"model.xma"} → canary-validated hot swap
//	GET  /healthz       process liveness
//	GET  /readyz        model loaded and serving
//	GET  /metrics       counters, queue depth, latency/batch histograms
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"crossmodal/internal/featurestore"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// Config assembles a Server.
type Config struct {
	// Store featurizes request points (and caches hot ones). Only points
	// this server derives may enter it: its key names BuildPoint's point.
	Store *featurestore.Store
	// World is the synthetic traffic source requests are sampled from;
	// it must match the world the loadgen or caller derives IDs against.
	World *synth.World
	// Seed is the base seed request points derive their observation
	// noise from, so a request always renders identically (and the
	// featurestore cache key — id, modality, frames — is sound).
	Seed int64
	// Batcher bounds admission: how many requests may wait for a run slot.
	Batcher BatcherConfig
	// Workers sizes New's featurization of the canary batch (0 =
	// GOMAXPROCS). A request sizes its own from its point count.
	Workers int
	// PointSource, when set, overrides the default static-world derivation
	// of request points: the lifecycle simulator plugs in time-varying
	// traffic (synth.Traffic.Point) here so the same server stack serves a
	// drifting world. It is consulted only for a request point whose key
	// misses the featurestore, and must be deterministic in its arguments
	// and return a point with that ID, modality and frame count — the
	// featurestore keys vectors by them.
	PointSource func(id int, m synth.Modality, frames int) *synth.Point
	// Timeout is the per-request scoring budget; a request that cannot be
	// scored inside it is shed (default 500ms).
	Timeout time.Duration
}

func (c Config) validate() error {
	if c.Store == nil {
		return fmt.Errorf("serve: nil featurestore")
	}
	if c.World == nil {
		return fmt.Errorf("serve: nil world")
	}
	return nil
}

// pointsPerWorker is a request's featurization grain, up to GOMAXPROCS
// workers: a second worker saves a cold 64-point request under 5 % on an idle
// server (BenchmarkColdPredict), but one woken on a loaded server can wait
// milliseconds for a CPU.
const pointsPerWorker = 64

// Request limits: a body over maxBodyBytes or a /predict naming more than
// maxPointsPerRequest points is refused with 413, and a point asking for
// more than maxFramesPerPoint video frames (each frame is one observation
// per service) with 400, before any work is admitted — a request holds its
// run slot until all of its points are scored, so its size bounds the wait
// of every request queued behind it.
const (
	maxBodyBytes        = 1 << 20
	maxPointsPerRequest = 1024
	maxFramesPerPoint   = 64
)

// decodeBody decodes a JSON request body of at most maxBodyBytes into v,
// answering 413 or 400 itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request body: "+err.Error(), status)
	return false
}

// Server is the online inference service. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	cfg Config
	reg *Registry
	bat *Batcher[featurestore.Key]
	met *Metrics
	mux *http.ServeMux
}

// New builds a server with an empty registry: it is alive (healthz) but not
// ready (readyz) until a model is installed or reloaded. canary is the
// validation batch for hot swaps (may be nil).
func New(cfg Config, canary []*synth.Point) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	s := &Server{cfg: cfg, met: NewMetrics()}
	vecs, err := cfg.Store.Featurize(context.Background(), mapreduce.Config{Workers: cfg.Workers}, canary)
	if err != nil {
		return nil, fmt.Errorf("serve: featurize canary: %w", err)
	}
	s.reg = NewRegistry(vecs)
	s.bat = NewBatcher(cfg.Batcher, s.execBatch, s.met)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /predict", s.handlePredict)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Registry exposes the model registry (startup installs, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the metric set.
func (s *Server) Metrics() *Metrics { return s.met }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Connection timeouts: a client that stalls sending its headers or body, or
// parks an idle keep-alive connection, cannot hold a server goroutine.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer serves h on addr (empty when the caller brings its own
// listener) under the connection timeouts.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Close stops the batcher. The handler keeps answering health and metrics
// but sheds predictions.
func (s *Server) Close() { s.bat.Close() }

// DerivePoint renders a (seed, id) pair into the synthetic data point it
// names: the entity and observation noise derive deterministically from
// synth.PointSeed, the seed corpus points carry, so the same ID always
// featurizes identically — in this process, in a restarted one, and
// in a test comparing against in-process Predict. cmd/serve uses it to build
// the canary batch before the server exists. The entity is drawn from a
// pooled generator, so deriving a point allocates no generator.
func DerivePoint(w *synth.World, baseSeed int64, id int, m synth.Modality, frames int) *synth.Point {
	seed := synth.PointSeed(baseSeed, id)
	rng := xrand.Get(int64(seed))
	defer xrand.Put(rng)
	return &synth.Point{
		ID:       id,
		Entity:   w.SampleEntity(rng, m, id),
		Modality: m,
		Seed:     seed,
		Frames:   frames,
	}
}

// BuildPoint renders a request into the data point it names: the
// PointSource's point when one is set, else DerivePoint's under the server's
// base seed. Each call derives afresh; the featurestore is serving's only
// memo, and execBatch calls BuildPoint only for a key that misses it.
func (s *Server) BuildPoint(id int, m synth.Modality, frames int) *synth.Point {
	if s.cfg.PointSource != nil {
		return s.cfg.PointSource(id, m, frames)
	}
	return DerivePoint(s.cfg.World, s.cfg.Seed, id, m, frames)
}

// execBatch is the batcher's ExecFunc: snapshot the model once, look the
// request's keys up in the store under its deadline, and score the vectors
// into the response buffer through the scorer the registry installed with
// the model. A point is derived (BuildPoint) only for a key that misses, so a
// hit costs a lookup and the model's arithmetic. A request under
// 2*pointsPerWorker points featurizes its misses on the calling goroutine —
// its handler — and wakes no other.
func (s *Server) execBatch(ctx context.Context, keys []featurestore.Key, scores []float64) (uint64, error) {
	cur := s.reg.Current()
	if cur == nil {
		return 0, errNotReady
	}
	workers := 1
	if len(keys) >= 2*pointsPerWorker {
		workers = min(len(keys)/pointsPerWorker, runtime.GOMAXPROCS(0))
	}
	vecs, err := s.cfg.Store.FeaturizeKeys(ctx, mapreduce.Config{Workers: workers}, keys, func(i int) *synth.Point {
		return s.BuildPoint(keys[i].ID, keys[i].Modality, keys[i].Frames)
	})
	if err != nil {
		return 0, err
	}
	cur.scoreInto(vecs, scores)
	for _, sc := range scores[:len(keys)] {
		s.met.Scores.Observe(sc)
	}
	return cur.Seq, nil
}

// errNotReady maps to 503: the server is up but has no model yet.
var errNotReady = errors.New("serve: no model loaded")

// PointRequest names one data point to score.
type PointRequest struct {
	ID       int    `json:"id"`
	Modality string `json:"modality,omitempty"` // default "image"
	Frames   int    `json:"frames,omitempty"`
}

// predictRequest is the /predict body: one or more points.
type predictRequest struct {
	Points []PointRequest `json:"points"`
}

// predictResponse is the /predict reply.
type predictResponse struct {
	Scores   []float64 `json:"scores"`
	ModelSeq uint64    `json:"model_seq"`
	Kind     string    `json:"kind"`
}

// parseModality maps the wire modality to synth's; "" defaults to image
// (the new modality the paper adapts to).
func parseModality(s string) (synth.Modality, error) {
	switch s {
	case "", "image":
		return synth.Image, nil
	case "text":
		return synth.Text, nil
	case "video":
		return synth.Video, nil
	default:
		return "", fmt.Errorf("unknown modality %q", s)
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.reg.Ready() {
		s.met.NotReady.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	var req predictRequest
	if !decodeBody(w, r, &req) {
		s.met.ClientErrors.Add(1)
		return
	}
	if len(req.Points) == 0 {
		s.met.ClientErrors.Add(1)
		http.Error(w, "no points", http.StatusBadRequest)
		return
	}
	if len(req.Points) > maxPointsPerRequest {
		s.met.ClientErrors.Add(1)
		http.Error(w, fmt.Sprintf("%d points in one request (limit %d)", len(req.Points), maxPointsPerRequest),
			http.StatusRequestEntityTooLarge)
		return
	}
	keys := make([]featurestore.Key, len(req.Points))
	for i, p := range req.Points {
		m, err := parseModality(p.Modality)
		if err == nil && (p.Frames < 0 || p.Frames > maxFramesPerPoint) {
			err = fmt.Errorf("point %d: frames %d outside [0, %d]", p.ID, p.Frames, maxFramesPerPoint)
		}
		if err != nil {
			s.met.ClientErrors.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		keys[i] = featurestore.Key{ID: p.ID, Modality: m, Frames: p.Frames}
	}
	deadline := start.Add(s.cfg.Timeout)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	// The whole request is one ExecFunc call, scored by one model generation.
	resp := predictResponse{Scores: make([]float64, len(keys))}
	seq, err := s.bat.SubmitPoints(ctx, keys, resp.Scores, deadline)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	resp.ModelSeq = seq
	if cur := s.reg.Current(); cur != nil {
		resp.Kind = cur.Kind
	}
	s.met.ObserveRequest(time.Since(start), len(req.Points), time.Now())
	writeJSON(w, http.StatusOK, resp)
}

// writeSubmitError maps batcher errors to HTTP statuses: shed load is 429
// with a Retry-After hint, not-ready is 503, timeouts are 504.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		if !errors.Is(err, ErrDeadline) { // the batcher counts the sheds it makes
			s.met.ShedDeadline.Add(1)
		}
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, errNotReady):
		s.met.NotReady.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		s.met.ClientErrors.Add(1)
	default:
		s.met.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// reloadRequest is the /admin/reload body.
type reloadRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		http.Error(w, "missing artifact path", http.StatusBadRequest)
		return
	}
	l, err := s.reg.LoadArtifact(req.Path)
	if err != nil {
		// The old model (if any) keeps serving; tell the operator why the
		// new one was refused.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	resp := map[string]any{
		"seq":  l.Seq,
		"kind": l.Kind,
		"path": l.Path,
	}
	if l.Lineage != nil {
		resp["trigger"] = l.Lineage.Trigger
		resp["parent"] = l.Lineage.Parent
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.reg.Ready() {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	cur := s.reg.Current()
	fmt.Fprintf(w, "ready kind=%s seq=%d\n", cur.Kind, cur.Seq)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var kind string
	var seq uint64
	if cur := s.reg.Current(); cur != nil {
		kind, seq = cur.Kind, cur.Seq
	}
	s.met.WriteTo(w, s.bat.QueueDepth(), kind, seq)
	hits, misses, evicted := s.cfg.Store.Stats()
	fmt.Fprintf(w, "serve_featurestore_hits_total %d\n", hits)
	fmt.Fprintf(w, "serve_featurestore_misses_total %d\n", misses)
	fmt.Fprintf(w, "serve_featurestore_evicted_total %d\n", evicted)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// timedSetup runs setup n times and returns the median of its durations in
// seconds; the last run's product is the one the workload uses. Set-up is
// repeated because one build of a world and a dataset is too short and too
// noisy to hold a regression bound on its own.
func timedSetup(n int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

func (c runConfig) tmpDir() (string, func(), error) {
	dir, err := os.MkdirTemp(c.outDir, "tmp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// repStats is what the harness measures around one repetition.
type repStats struct {
	wallS, allocMB float64
}

func measureRep(fn func() error) (repStats, error) {
	allocs := readMetric(allocsMetric)
	start := time.Now()
	err := fn()
	return repStats{wallS: time.Since(start).Seconds(), allocMB: allocMB(allocs)}, err
}

// finite is the output check on a quality number: a real value, and not 0.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return false
		}
	}
	return true
}

// errNoP99 ends a serving run whose closed loop was too short, or whose
// machine too slow, to collect the thousand samples a p99 needs.
var errNoP99 = errors.New("the percentile rule allows no p99 (fewer than 10 samples beyond it)")

// Set-up repetitions per run: a curation workload's set-up takes tens of
// milliseconds, a server's half a second, the drift episode's bootstrap more
// than two seconds. minReps is the fewest timed repetitions of a batch
// workload, however long one takes.
const (
	curationSetups  = 21
	serveSetups     = 3
	lifecycleSetups = 2
	minReps         = 2
)

// repeat runs a batch workload's job (one complete repetition, its checks
// included) until the measured seconds have passed, and at least twice; then
// once more under the heap watch. It sets the three metrics every batch
// workload defines the same way. A job that times itself returns its own wall
// time, otherwise 0. A repetition that errors is a failed operation, not a
// harness failure: it is counted and ends the repeating.
func repeat(cfg runConfig, res *result, job func(i int) (wallS float64, err error)) error {
	var walls, allocs []float64
	total := 0.0
	for i := 0; i < minReps || total < cfg.seconds; i++ {
		var own float64
		st, err := measureRep(func() (err error) {
			own, err = job(i)
			return err
		})
		if err != nil {
			res.ops.add(res.check(fmt.Sprintf("rep%d.completes", i), false, "%v", err))
			break
		}
		if own > 0 {
			st.wallS = own
		}
		walls, allocs = append(walls, st.wallS), append(allocs, st.allocMB)
		total += st.wallS
	}
	if len(walls) == 0 {
		return fmt.Errorf("no repetition completed")
	}
	res.note("timed repetitions, s: %.3f", walls)
	res.MeasuredS = median(walls)
	res.set("wall_s", res.MeasuredS, len(walls))
	res.set("alloc_mb", median(allocs), len(allocs))
	hw := startHeapWatch()
	_, err := job(len(walls))
	peak := hw.peakMB()
	if err != nil {
		res.ops.add(res.check("heap_watch_rep.completes", false, "%v", err))
		return nil
	}
	res.set("peak_heap_mb", peak, 1)
	return nil
}

// curationWorkload is what curate_mem and curate_stream differ in.
type curationWorkload struct {
	rep func(rec *recorder, req int) (curateOut, error)
	// checkRep judges one repetition's outputs against the first's.
	checkRep func(res *result, i int, first, out curateOut) bool
}

// runCurationUntraced is the end-to-end run of a curation workload. It
// returns the first repetition's output, which every other one was checked
// against.
func runCurationUntraced(cfg runConfig, res *result, w curationWorkload, setupS float64) (curateOut, error) {
	var first curateOut
	err := repeat(cfg, res, func(i int) (float64, error) {
		out, err := w.rep(nil, i)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = out
		}
		res.ops.add(w.checkRep(res, i, first, out))
		return 0, nil
	})
	if err != nil {
		return first, err
	}
	res.set("setup_s", setupS, curationSetups)
	res.set("ws_f1", first.wsF1, 0)
	return first, nil
}

// ---------------------------------------------------------------- curate_mem

func runCurateMem(cfg runConfig, res *result) error {
	var env *curateMem
	setupS, err := timedSetup(curationSetups, func() (err error) {
		env, res.Env.Sizes, err = setupCurateMem(cfg)
		return err
	})
	if err != nil {
		return err
	}
	w := curationWorkload{
		rep: env.rep,
		checkRep: func(res *result, i int, first, out curateOut) bool {
			ok := res.check(fmt.Sprintf("rep%d.quality_finite", i), finite(out.wsF1, out.auprc),
				"ws_f1 %v test_auprc %v", out.wsF1, out.auprc)
			return res.check(fmt.Sprintf("rep%d.problabels_identical", i), out.digest == first.digest,
				"digest %x, first repetition %x", out.digest, first.digest) && ok
		},
	}
	if cfg.traced {
		return runCurationTraced(cfg, res, w, func(c *layerClock) error { return env.replay(c) })
	}
	first, err := runCurationUntraced(cfg, res, w, setupS)
	if err != nil {
		return err
	}
	res.set("test_auprc", first.auprc, 0)
	return nil
}

// ------------------------------------------------------------- curate_stream

func runCurateStream(cfg runConfig, res *result) error {
	var env *curateStream
	setupS, err := timedSetup(curationSetups, func() (err error) {
		env, res.Env.Sizes, err = setupCurateStream(cfg)
		return err
	})
	if err != nil {
		return err
	}
	tmp, cleanup, err := cfg.tmpDir()
	if err != nil {
		return err
	}
	defer cleanup()
	dirs := 0
	freshDir := func() string {
		dirs++
		return filepath.Join(tmp, fmt.Sprintf("store-%d", dirs))
	}
	w := curationWorkload{
		rep: func(rec *recorder, req int) (curateOut, error) {
			dir := freshDir()
			out, err := env.rep(rec, req, dir)
			os.RemoveAll(dir) // keeps the disk footprint at one repetition
			return out, err
		},
		checkRep: func(res *result, i int, first, out curateOut) bool {
			ok := res.check(fmt.Sprintf("rep%d.quality_finite", i), finite(out.wsF1), "ws_f1 %v", out.wsF1)
			ok = res.check(fmt.Sprintf("rep%d.chunks_committed", i), out.chunks == out.wantChunks && out.quarantined == 0,
				"%d chunks committed, want %d; %d files quarantined", out.chunks, out.wantChunks, out.quarantined) && ok
			return res.check(fmt.Sprintf("rep%d.problabels_identical", i), out.digest == first.digest,
				"digest %x, first repetition %x", out.digest, first.digest) && ok
		},
	}
	if cfg.traced {
		return runCurationTraced(cfg, res, w, func(c *layerClock) error { return env.replay(c, freshDir()) })
	}
	_, err = runCurationUntraced(cfg, res, w, setupS)
	return err
}

// runCurationTraced is the per-layer run of a curation workload: one
// untraced repetition, one spanned repetition (their difference is the
// tracing overhead), then the layer replay.
func runCurationTraced(cfg runConfig, res *result, w curationWorkload, replay func(*layerClock) error) error {
	var plain, spanned curateOut
	st, err := measureRep(func() (err error) {
		plain, err = w.rep(nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	res.ops.add(w.checkRep(res, 0, plain, plain))
	rec := newRecorder()
	stT, err := measureRep(func() (err error) {
		spanned, err = w.rep(rec, 1)
		return err
	})
	if err != nil {
		return err
	}
	res.ops.add(w.checkRep(res, 1, plain, spanned))
	res.set("trace_overhead_share", (stT.wallS-st.wallS)/st.wallS, 1)
	res.set("core.curate_s", spanned.curateS, 1)
	if spanned.trainS > 0 {
		res.set("core.train_s", spanned.trainS, 1)
	}

	c := newLayerClock(rec)
	if err := replay(c); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	onPath := curationLayerMetrics(c, res)
	res.set("core.unattributed_share", 1-onPath.Seconds()/st.wallS, 1)
	return writeSpans(cfg.outDir, res.Workload, res.Env, rec.snapshot())
}

// ------------------------------------------------------- serve_hot, serve_cold

const (
	hotSetSize     = 2048 // fits the 4096-slot point cache and the 65536-entry store
	warmupRequests = 2048 // eight sweeps of the hot set
	checkedIDs     = 64
)

// openRates are the open loop's three absolute rates in points/s.
var openRates = map[bool][3]float64{
	true:  {10_000, 20_000, 30_000}, // serve_hot
	false: {4_000, 8_000, 12_000},   // serve_cold
}

// mix is splitmix64: the seeded draw behind the hot workload's ID stream.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// idStreams are a serving workload's generated inputs. next is the
// workload's request stream: hot draws (seeded) from hotSetSize IDs, cold
// never repeats an ID. fresh always yields an ID never used before. Both
// are safe for concurrent callers.
type idStreams struct {
	base        int
	next, fresh func() int
	hot         bool
	used        atomic.Uint64
}

func newIDStreams(seed int64, hot bool) *idStreams {
	s := &idStreams{base: int(mix(uint64(seed))%1000) * 10_000_000, hot: hot}
	var draws atomic.Uint64
	s.fresh = func() int { return s.base + hotSetSize + int(s.used.Add(1)) }
	s.next = s.fresh
	if hot {
		s.next = func() int { return s.base + int(mix(uint64(seed)^draws.Add(1)<<20)%hotSetSize) }
	}
	return s
}

// reserve sets n fresh IDs aside and returns where they start; skipTo makes
// a stream in another process continue from there.
func (s *idStreams) reserve(n int) int { return int(s.used.Add(uint64(n))) - n }
func (s *idStreams) skipTo(first int)  { s.used.Store(uint64(first)) }

// sample returns n IDs of the kind the workload serves: members of the hot
// set, or fresh IDs.
func (s *idStreams) sample(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		if s.hot {
			ids[i] = s.base + i*(hotSetSize/n)%hotSetSize
		} else {
			ids[i] = s.fresh()
		}
	}
	return ids
}

func runServeHot(cfg runConfig, res *result) error  { return runServe(cfg, res, true) }
func runServeCold(cfg runConfig, res *result) error { return runServe(cfg, res, false) }

// scoreIDs posts ids eight at a time and returns the served scores; every
// request is an operation in the tally.
func scoreIDs(c *predictClient, ids []int, ops *tally) ([]float64, error) {
	var scores []float64
	var body []byte
	for lo := 0; lo < len(ids); lo += pointsPerRequest {
		reply, b, err := c.post(ids[lo:min(lo+pointsPerRequest, len(ids))], body, -1)
		body = b
		ops.add(err == nil)
		if err != nil {
			return nil, err
		}
		scores = append(scores, reply.Scores...)
	}
	return scores, nil
}

func addLoad(res *result, phase string, st *loadStats) {
	res.Phases = append(res.Phases, st.count(phase))
	res.ops.merge(tally{attempted: st.Sent, failed: st.Failed})
}

func runServe(cfg runConfig, res *result, hot bool) error {
	tmp, cleanup, err := cfg.tmpDir()
	if err != nil {
		return err
	}
	defer cleanup()
	ids := newIDStreams(cfg.seed, hot)
	res.Env.Sizes = map[string]int{"hot_set": hotSetSize, "warmup_requests": warmupRequests,
		"points_per_request": pointsPerRequest, "store_capacity": storeCapacity, "id_base": ids.base}

	var rec *recorder
	var mw *spanMiddleware
	var wrap func(http.Handler) http.Handler
	if cfg.traced {
		rec = newRecorder()
		wrap = func(h http.Handler) http.Handler {
			mw = &spanMiddleware{rec: rec, next: h}
			return mw
		}
	}

	// Set-up: world, library, bootstrap training, artifact, server start and
	// a warm-up of warmupRequests requests (work-bounded, so a slower server
	// shows here too). The hot warm-up sweeps the ID set in order so every ID
	// is resident before the measured phase.
	var env *serveEnv
	var client *predictClient
	stop := func() {
		if env != nil {
			client.close()
			env.close()
		}
	}
	defer func() { stop() }()
	var warm *loadStats
	setupS, err := timedSetup(serveSetups, func() (err error) {
		stop()
		if env, err = setupServe(cfg, tmp, wrap); err != nil {
			return err
		}
		client = newPredictClient(env.url, 256)
		var swept atomic.Uint64
		warmID := ids.next
		if hot {
			warmID = func() int { return ids.base + int(swept.Add(1)-1)%hotSetSize }
		}
		warm = closedLoop(client, cfg.callers(), 0, cfg.size(warmupRequests), warmID, nil)
		return nil
	})
	if err != nil {
		return err
	}
	addLoad(res, "warmup", warm)

	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		// Two closed loops and three open-loop phases share the traced run;
		// five seconds still take serve_cold's store past its capacity.
		measured = min(measured, 5*time.Second)
	}
	before := env.counters()
	closed := closedLoop(client, cfg.callers(), measured, 0, ids.next, nil)
	after := env.counters()
	res.MeasuredS = closed.ElapsedS
	addLoad(res, "closed", closed)
	if closed.OK == 0 {
		return fmt.Errorf("closed loop: no request succeeded (%v)", closed.FirstErr)
	}
	capacity := closed.capacityPPS()

	// Output check: served scores against in-process scores of freshly
	// derived points. (Every reply's score count was checked as it arrived.)
	sample := ids.sample(checkedIDs)
	served, err := scoreIDs(client, sample, &res.ops)
	if err != nil {
		return err
	}
	want, err := env.reference(sample)
	if err != nil {
		return err
	}
	worst, tol := 0.0, env.tolerance()
	for i := range want {
		worst = math.Max(worst, math.Abs(served[i]-want[i]))
	}
	res.check("served_scores_match_in_process", worst <= tol, "largest divergence %g over %d IDs, tolerance %g", worst, len(sample), tol)

	if cfg.traced {
		return runServeTraced(cfg, res, env, client, ids, rec, mw, closed, capacity, before, after)
	}

	res.set("setup_s", setupS, serveSetups)
	res.set("capacity_pps", capacity, closed.pointsOK())
	p50, ok50 := percentile(closed.Lat, 0.50)
	p99, ok99 := percentile(closed.Lat, 0.99)
	if !ok50 || !ok99 {
		return fmt.Errorf("closed loop: %d samples: %w", len(closed.Lat), errNoP99)
	}
	res.set("p50_ms", p50, len(closed.Lat))
	res.set("p99_ms", p99, len(closed.Lat))
	return nil
}

// runServeTraced is the rest of the per-layer run: a spanned closed loop
// (its capacity against the untraced one is the tracing overhead), the
// direct layer replay, and the open loop at three rates.
func runServeTraced(cfg runConfig, res *result, env *serveEnv, client *predictClient, ids *idStreams,
	rec *recorder, mw *spanMiddleware, closed *loadStats, capacity float64, before, after serveCounters) error {

	setCounterMetrics(res, before, after)
	if p999, ok := percentile(closed.Lat, 0.999); ok {
		res.set("serve.p999_ms", p999, len(closed.Lat))
	} else {
		res.note("closed loop: %d samples support no p99.9", len(closed.Lat))
	}

	mw.on.Store(true)
	spanned := closedLoop(client, cfg.callers(), time.Duration(closed.ElapsedS*float64(time.Second)), 0, ids.next, rec)
	mw.on.Store(false)
	addLoad(res, "closed-spanned", spanned)
	if spanned.OK == 0 {
		return fmt.Errorf("spanned closed loop: no request succeeded (%v)", spanned.FirstErr)
	}
	res.set("trace_overhead_share", capacity/spanned.capacityPPS()-1, 1)
	var handlerMs []float64
	for _, s := range rec.snapshot() {
		if s.Name == spHandler && s.End >= s.Start {
			handlerMs = append(handlerMs, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(handlerMs)
	clientP50, ok1 := percentile(spanned.Lat, 0.5)
	handlerP50, ok2 := percentile(handlerMs, 0.5)
	if ok1 && ok2 {
		res.set("serve.net_us_per_req", (clientP50-handlerP50)*1000, len(handlerMs))
	}

	c := newLayerClock(rec)
	if err := env.replay(c, ids.next, ids.fresh); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	servingLayerMetrics(c, res)

	if err := runOpenLoop(cfg, res, env.url, ids); err != nil {
		return err
	}
	return writeSpans(cfg.outDir, res.Workload, res.Env, rec.snapshot())
}

// runOpenLoop offers the workload's three fixed rates, each timed from the
// due time. A phase whose generator ran late or under rate is reported as
// invalid and its metrics are left out.
func runOpenLoop(cfg runConfig, res *result, baseURL string, ids *idStreams) error {
	seconds := math.Min(4, cfg.seconds)
	var lagWorst, slo float64
	anyValid := false
	for r, pps := range openRates[ids.hot] {
		rps := pps / pointsPerRequest
		n := int(seconds * rps)
		st, err := openLoopInChild(openLoopSpec{URL: baseURL, RPS: rps, Requests: n, Seed: cfg.seed,
			Hot: ids.hot, FirstFresh: ids.reserve(n * pointsPerRequest)})
		if err != nil {
			return err
		}
		phase := fmt.Sprintf("open-r%d", r+1)
		pc := st.count(phase)
		valid, why := st.generatorValid()
		lag, _ := st.lagP99()
		pc.Note = strings.TrimSpace(fmt.Sprintf("target %.0f points/s, offered %.0f points/s, lag p99 %.3f ms, backlog %d. %s",
			pps, st.Achieved*pointsPerRequest, lag, st.Backlog, pc.Note))
		if !valid {
			pc.Note += " INVALID: " + why
			res.Phases = append(res.Phases, pc)
			continue // the generator, not the server, was measured
		}
		res.Phases = append(res.Phases, pc)
		res.ops.merge(tally{attempted: st.Sent, failed: st.Failed})
		anyValid = true
		lagWorst = math.Max(lagWorst, lag)
		if p50, ok := percentile(st.Lat, 0.5); ok {
			res.set(fmt.Sprintf("serve.open_p50_ms.r%d", r+1), p50, len(st.Lat))
		}
		if p99, ok := percentile(st.Lat, 0.99); ok {
			res.set(fmt.Sprintf("serve.open_p99_ms.r%d", r+1), p99, len(st.Lat))
		}
		if st.meetsSLO() {
			slo = pps
		}
	}
	if anyValid {
		res.set("serve.open_lag_p99_ms", lagWorst, 0)
		res.set("serve.slo_pps", slo, 0)
	}
	return nil
}

// ------------------------------------------------------------ lifecycle_drift

// tapRecord is one request the lifecycle controller made, stamped from
// outside by the handler wrapper.
type tapRecord struct {
	path       string
	start, end time.Time
	status     int
}

// requestTap wraps the server's handler and stamps every request. The
// controller is the only client, so the order of /predict requests gives the
// window each belongs to.
type requestTap struct {
	mu      sync.Mutex
	records []tapRecord
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (t *requestTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		rec := tapRecord{path: r.URL.Path, start: start, end: time.Now(), status: sw.status}
		t.mu.Lock()
		t.records = append(t.records, rec)
		t.mu.Unlock()
	})
}

// episodeTimes is what the tap's records say about one episode.
type episodeTimes struct {
	failed          int     // requests answered with anything but 200
	adaptS          float64 // first /predict of the onset window → 200 of the promoting reload
	reloadMs        float64
	reloadArrival   time.Time
	windowScoreMs   []float64 // first → last /predict of each window
	windowGapMs     []float64 // last /predict of a window → first of the next
	requestsInTotal int
}

// spans records the tap's requests under the episode's span, each tagged
// with the window it belongs to, and the retrain (hook → reload arrival).
func (t *requestTap) spans(rec *recorder, parent, window int, retrainStart, reloadArrival time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	perWindow := (window + lcBatch - 1) / lcBatch
	predicts := 0
	for _, r := range t.records {
		rec.add("serve.Handler "+r.path, r.start, r.end, parent, predicts/perWindow)
		if r.path == "/predict" {
			predicts++
		}
	}
	if !retrainStart.IsZero() && !reloadArrival.IsZero() {
		rec.add("lifecycle.retrain", retrainStart, reloadArrival, parent, 0)
	}
}

func (t *requestTap) times(window int) episodeTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	var et episodeTimes
	perWindow := (window + lcBatch - 1) / lcBatch
	var predicts []tapRecord
	for _, r := range t.records {
		et.requestsInTotal++
		if r.status != http.StatusOK {
			et.failed++
		}
		switch r.path {
		case "/predict":
			predicts = append(predicts, r)
		case "/admin/reload":
			if r.status == http.StatusOK && len(predicts) > lcOnset*perWindow {
				et.adaptS = r.end.Sub(predicts[lcOnset*perWindow].start).Seconds()
				et.reloadMs = float64(r.end.Sub(r.start)) / 1e6
				et.reloadArrival = r.start
			}
		}
	}
	for w := 0; (w+1)*perWindow <= len(predicts); w++ {
		first, last := predicts[w*perWindow], predicts[(w+1)*perWindow-1]
		et.windowScoreMs = append(et.windowScoreMs, float64(last.end.Sub(first.start))/1e6)
		if (w+1)*perWindow < len(predicts) {
			et.windowGapMs = append(et.windowGapMs, float64(predicts[(w+1)*perWindow].start.Sub(last.end))/1e6)
		}
	}
	return et
}

func runLifecycle(cfg runConfig, res *result) error {
	tmp, cleanup, err := cfg.tmpDir()
	if err != nil {
		return err
	}
	defer cleanup()
	var env *lifecycleEnv
	setupS, err := timedSetup(lifecycleSetups, func() (err error) {
		env, res.Env.Sizes, err = setupLifecycle(cfg, tmp)
		return err
	})
	if err != nil {
		return err
	}

	episodes := 0
	// runEpisode replays the schedule once and judges its outputs. Every
	// request the controller made is an operation; so is the episode.
	runEpisode := func(hook func(int, int) error) (episodeOut, episodeTimes, *requestTap, error) {
		episodes++
		dir := filepath.Join(tmp, fmt.Sprintf("episode-%d", episodes))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return episodeOut{}, episodeTimes{}, nil, err
		}
		tap := &requestTap{}
		out, err := env.episode(dir, tap.wrap, hook)
		if err != nil {
			return out, episodeTimes{}, tap, err
		}
		et := tap.times(env.window)
		res.ops.merge(tally{attempted: et.requestsInTotal, failed: et.failed})
		i := episodes - 1
		ok := res.check(fmt.Sprintf("episode%d.drift_after_onset", i), out.driftWindow >= lcOnset,
			"first drift event at window %d, onset is window %d", out.driftWindow, lcOnset)
		ok = res.check(fmt.Sprintf("episode%d.promoted", i), out.promotions > 0 && et.adaptS > 0,
			"%d promotions, %d retrains, %d rejections", out.promotions, out.retrains, out.rejections) && ok
		ok = res.check(fmt.Sprintf("episode%d.model_seq_rises", i), out.servedSeq > 1 && out.servedSeq == out.finalSeq,
			"serving model_seq %d, controller's final seq %d", out.servedSeq, out.finalSeq) && ok
		res.ops.add(ok)
		return out, et, tap, nil
	}

	if cfg.traced {
		plain, _, _, err := runEpisode(nil)
		if err != nil {
			return err
		}
		rec := newRecorder()
		var retrainStart time.Time
		episodeSpan := rec.begin("lifecycle.Controller.Run", -1, 0)
		spanned, et, tap, err := runEpisode(func(int, int) error {
			retrainStart = time.Now()
			return nil
		})
		rec.end(episodeSpan)
		if err != nil {
			return err
		}
		res.set("trace_overhead_share", (spanned.wallS-plain.wallS)/plain.wallS, 1)
		tap.spans(rec, episodeSpan, env.window, retrainStart, et.reloadArrival)
		res.set("lifecycle.window_score_ms", median(et.windowScoreMs), len(et.windowScoreMs))
		res.set("lifecycle.window_gap_ms", median(et.windowGapMs), len(et.windowGapMs))
		if !retrainStart.IsZero() && !et.reloadArrival.IsZero() {
			res.set("lifecycle.retrain_s", et.reloadArrival.Sub(retrainStart).Seconds(), 1)
		}
		res.set("serve.reload_ms", et.reloadMs, 1)
		res.set("lifecycle.detect_windows", float64(spanned.driftWindow-lcOnset), 0)
		res.set("lifecycle.detections", float64(spanned.detections), 0)
		res.set("lifecycle.retrains", float64(spanned.retrains), 0)
		res.set("lifecycle.promotions", float64(spanned.promotions), 0)
		res.set("lifecycle.rejections", float64(spanned.rejections), 0)
		c := newLayerClock(rec)
		if err := env.replay(c, tmp); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		lifecycleLayerMetrics(c, res)
		return writeSpans(cfg.outDir, res.Workload, res.Env, rec.snapshot())
	}

	var adapts []float64
	err = repeat(cfg, res, func(int) (float64, error) {
		out, et, _, err := runEpisode(nil)
		if err != nil {
			return 0, err
		}
		adapts = append(adapts, et.adaptS)
		return out.wallS, nil // Controller.Run alone, without the episode's server start
	})
	if err != nil {
		return err
	}
	// The episode under the heap watch is slower and its adapt_s is not used.
	adapts = adapts[:len(adapts)-1]
	res.set("setup_s", setupS, lifecycleSetups)
	res.set("adapt_s", median(adapts), len(adapts))
	return nil
}

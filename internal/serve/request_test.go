package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// useExec replaces s's batcher with one that runs exec; the server's Close
// stops it.
func useExec(s *Server, exec ExecFunc[featurestore.Key]) {
	s.bat.Close()
	s.bat = NewBatcher(BatcherConfig{}, exec, s.met)
}

// TestPredictRequestIsOneBatch: a /predict request is one ExecFunc call — an
// 8-point request and a 100-point one (over the pointsPerWorker grain) each
// reach ExecFunc in exactly one call.
func TestPredictRequestIsOneBatch(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 10*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls []int
	useExec(s, func(ctx context.Context, keys []featurestore.Key, scores []float64) (uint64, error) {
		mu.Lock()
		calls = append(calls, len(keys))
		mu.Unlock()
		return s.execBatch(ctx, keys, scores)
	})
	for _, n := range []int{8, 100} {
		mu.Lock()
		calls = nil
		mu.Unlock()
		req := predictRequest{Points: make([]PointRequest, n)}
		for i := range req.Points {
			req.Points[i].ID = 1000*n + i
		}
		resp, body := postJSON(t, ts.URL+"/predict", req)
		var pr predictResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || len(pr.Scores) != n {
			t.Fatalf("%d-point predict: %d %s", n, resp.StatusCode, body)
		}
		mu.Lock()
		got := append([]int(nil), calls...)
		mu.Unlock()
		if !reflect.DeepEqual(got, []int{n}) {
			t.Errorf("%d-point request reached ExecFunc as batches %v, want one of %d", n, got, n)
		}
	}
}

// TestHotSwapMidRequestScoresOneGeneration: the first request is held right
// after its ExecFunc scored it, a reload installs model B, then the request
// is released. Every score in each response must come from the model
// generation the response names.
func TestHotSwapMidRequestScoresOneGeneration(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 10*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	pathB := saveArtifact(t, fx.modelB, "b.xma")
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	want := map[uint64][]float64{}
	for _, id := range ids {
		want[1] = append(want[1], wantScore(t, fx.modelA, id))
		want[2] = append(want[2], wantScore(t, fx.modelB, id))
	}
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	useExec(s, func(ctx context.Context, keys []featurestore.Key, scores []float64) (uint64, error) {
		seq, err := s.execBatch(ctx, keys, scores)
		select {
		case held <- struct{}{}: // the first request holds until release
			<-release
		default:
		}
		return seq, err
	})

	predict := func() predictResponse {
		req := predictRequest{}
		for _, id := range ids {
			req.Points = append(req.Points, PointRequest{ID: id})
		}
		resp, body := postJSON(t, ts.URL+"/predict", req)
		var pr predictResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || len(pr.Scores) != len(ids) {
			t.Errorf("predict: %d %s", resp.StatusCode, body)
		}
		return pr
	}
	out := make(chan predictResponse, 1)
	go func() { out <- predict() }()
	<-held
	if resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": pathB}); resp.StatusCode != http.StatusOK {
		close(release)
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	close(release)
	for _, pr := range []predictResponse{<-out, predict()} {
		w, ok := want[pr.ModelSeq]
		if !ok {
			t.Fatalf("response names model seq %d", pr.ModelSeq)
		}
		if !reflect.DeepEqual(pr.Scores, w) {
			t.Errorf("seq %d response scored %v, that generation scores %v", pr.ModelSeq, pr.Scores, w)
		}
	}
}

// handlerCheck wraps a resource and counts the observations made off the
// /predict handler's goroutine, read from each caller's stack.
type handlerCheck struct {
	resource.Resource
	calls, offHandler atomic.Int32
}

func (h *handlerCheck) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	buf := make([]byte, 64<<10)
	if !bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Server).handlePredict")) {
		h.offHandler.Add(1)
	}
	h.calls.Add(1)
	h.Resource.Observe(dst, i, e, m, rng)
}

// TestColdPredictFeaturizesOnHandler: a cold 8-point /predict on an idle
// server featurizes its misses on the request's own handler goroutine — no
// other goroutine and no featurization workers.
func TestColdPredictFeaturizesOnHandler(t *testing.T) {
	fixture(t)
	res := fx.store.Library().Resources()
	var check *handlerCheck
	for i, r := range res {
		if r.Supports(synth.Image) {
			check = &handlerCheck{Resource: r}
			res[i] = check
			break
		}
	}
	lib, err := resource.NewLibrary(fx.world, res...)
	if err != nil {
		t.Fatal(err)
	}
	store, err := featurestore.New(lib, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, World: fx.world, Seed: fxSeed, Timeout: 5 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	// predict sends one cold n-point request and reports how many of its
	// observations ran off the handler's goroutine.
	predict := func(first, n int) int32 {
		check.calls.Store(0)
		check.offHandler.Store(0)
		req := predictRequest{Points: make([]PointRequest, n)}
		for i := range req.Points {
			req.Points[i].ID = first + i
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%d-point predict: %d %s", n, rec.Code, rec.Body.Bytes())
		}
		if check.calls.Load() == 0 {
			t.Fatalf("the cold %d-point request never reached the wrapped resource", n)
		}
		return check.offHandler.Load()
	}
	if off := predict(90_000, 8); off != 0 {
		t.Errorf("%d of %d observations ran off the handler's goroutine", off, check.calls.Load())
	}
	// A large cold request still spreads its featurization over the CPUs.
	if n := 4 * pointsPerWorker; runtime.GOMAXPROCS(0) >= 2 && predict(91_000, n) == 0 {
		t.Errorf("a cold %d-point request featurized serially on its handler", n)
	}
}

// BenchmarkColdPredict: one /predict naming n points the server has never
// seen, on an idle server — derivation, featurization of every point and
// scoring. 8 and 64 points featurize on the handler, 256 and 1024 fan out
// (pointsPerWorker).
func BenchmarkColdPredict(b *testing.B) {
	fixture(b)
	for _, n := range []int{8, 64, 256, 1024} {
		next := 1_000_000 * n // IDs no other round or size names
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			store, err := featurestore.New(fx.store.Library(), 4096)
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{Store: store, World: fx.world, Seed: fxSeed, Timeout: 10 * time.Second}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
				b.Fatal(err)
			}
			req := predictRequest{Points: make([]PointRequest, n)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range req.Points {
					req.Points[j].ID = next
					next++
				}
				body, err := json.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
				b.StartTimer()
				s.Handler().ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					b.Fatalf("predict: %d %s", rec.Code, rec.Body.Bytes())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
		})
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and drops
// the body, so a loop of in-process requests counts only the handler's work.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// hitPredict sends s an 8-point /predict for IDs first..first+7 through its
// Handler, so the store holds every key, and returns a function that sends
// the same request again, reusing one request value, body reader and writer.
func hitPredict(tb testing.TB, s *Server, first int) func() {
	tb.Helper()
	req := predictRequest{Points: make([]PointRequest, 8)}
	for i := range req.Points {
		req.Points[i].ID = first + i
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/predict", rd)
	w := &discardWriter{header: http.Header{}}
	h := s.Handler()
	send := func() {
		rd.Reset(body)
		w.status = http.StatusOK
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			tb.Fatalf("hit predict answered %d", w.status)
		}
	}
	send()
	return send
}

// newHitServer builds a server over a fresh store of the fixture's library,
// serving model A, with the given PointSource (nil derives by DerivePoint).
func newHitServer(tb testing.TB, source func(int, synth.Modality, int) *synth.Point) *Server {
	tb.Helper()
	fixture(tb)
	store, err := featurestore.New(fx.store.Library(), 4096)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Store: store, World: fx.world, Seed: fxSeed, Timeout: 10 * time.Second, PointSource: source}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPredictHitDerivesNothing: a request point is derived only when its key
// misses the store. N distinct keys derive N points; the same request again
// derives none. Both replies equal in-process PredictBatch of DerivePoint's
// points bit for bit.
func TestPredictHitDerivesNothing(t *testing.T) {
	var derived atomic.Int32
	s := newHitServer(t, func(id int, m synth.Modality, frames int) *synth.Point {
		derived.Add(1)
		return DerivePoint(fx.world, fxSeed, id, m, frames)
	})
	reqs := []PointRequest{{ID: 80001}, {ID: 80002}, {ID: 80003, Modality: "text"},
		{ID: 80003, Modality: "video", Frames: 2}, {ID: 80004}, {ID: 80005}}
	vecs := make([]*feature.Vector, len(reqs))
	for i, r := range reqs {
		m, _ := parseModality(r.Modality)
		vecs[i] = fx.store.Library().FeaturizePoint(DerivePoint(fx.world, fxSeed, r.ID, m, r.Frames))
	}
	want := fx.modelA.PredictBatch(vecs)
	body, err := json.Marshal(predictRequest{Points: reqs})
	if err != nil {
		t.Fatal(err)
	}
	for round, wantDerived := range []int32{int32(len(reqs)), 0} {
		derived.Store(0)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		var pr predictResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pr) != nil {
			t.Fatalf("round %d: %d %s", round, rec.Code, rec.Body.Bytes())
		}
		if n := derived.Load(); n != wantDerived {
			t.Errorf("round %d: %d points derived for %d distinct keys, want %d", round, n, len(reqs), wantDerived)
		}
		for i := range want {
			if math.Float64bits(pr.Scores[i]) != math.Float64bits(want[i]) {
				t.Errorf("round %d: %+v served %v, in-process %v", round, reqs[i], pr.Scores[i], want[i])
			}
		}
	}
}

// TestPredictHitAllocs pins the allocations of a warm 8-point /predict whose
// points all hit the store, through Handler: decode, keys, lookups, scoring
// and encode, with no point derived: 26 allocations; 58 means every point is
// derived again.
func TestPredictHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	send := hitPredict(t, newHitServer(t, nil), 81000)
	if allocs := testing.AllocsPerRun(100, send); allocs > 26 {
		t.Errorf("%v allocs per warm 8-point hit /predict, want at most 26", allocs)
	}
}

// BenchmarkHotPredict: one in-process /predict naming 8 points the store
// already holds — decode, lookups, scoring and encode, nothing derived.
func BenchmarkHotPredict(b *testing.B) {
	send := hitPredict(b, newHitServer(b, nil), 82000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8), "ns/point")
}

// TestPredictRejectsUnboundedFrames: a point's frame count is bounded before
// anything is admitted; one request asking for a billion frames must not pin
// a run slot. The server is deliberately never closed: where the bound is
// missing its request runs for minutes, and the 2 s guard fails the test
// instead.
func TestPredictRejectsUnboundedFrames(t *testing.T) {
	fixture(t)
	s, err := New(Config{Store: fx.store, World: fx.world, Seed: fxSeed, Timeout: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	serve := func(frames int) int {
		body := fmt.Sprintf(`{"points":[{"id":1,"modality":"video","frames":%d}]}`, frames)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		}()
		select {
		case <-done:
			return rec.Code
		case <-time.After(2 * time.Second):
			t.Fatalf("frames %d: no answer within 2 s", frames)
			return 0
		}
	}
	for _, frames := range []int{1_000_000_000, maxFramesPerPoint + 1, -1} {
		if code := serve(frames); code != http.StatusBadRequest {
			t.Fatalf("frames %d: status %d, want 400", frames, code)
		}
	}
	if m := s.Metrics(); m.BatchSize.Count() != 0 {
		t.Fatalf("rejected points reached the batcher: %d requests", m.BatchSize.Count())
	}
	// The bound is inclusive.
	if code := serve(maxFramesPerPoint); code != http.StatusOK {
		t.Fatalf("frames %d: status %d, want 200", maxFramesPerPoint, code)
	}
	s.Close()
}

// FuzzHandlePredict feeds raw bodies to /predict with a model loaded: the
// handler must never panic, must answer within the request timeout, and may
// only answer with a status the serving contract names.
func FuzzHandlePredict(f *testing.F) {
	fixture(f)
	const timeout = 2 * time.Second
	s, err := New(Config{Store: fx.store, World: fx.world, Seed: fxSeed, Timeout: timeout}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		f.Fatal(err)
	}
	var many strings.Builder
	many.WriteString(`{"points":[`)
	for i := 0; i <= maxPointsPerRequest; i++ {
		if i > 0 {
			many.WriteByte(',')
		}
		fmt.Fprintf(&many, `{"id":%d}`, i)
	}
	many.WriteString(`]}`)
	for _, seed := range []string{
		`{"points":[{"id":1,"modality":"video","frames":1000000000}]}`,
		strings.Repeat(" ", maxBodyBytes) + `{"points":[{"id":1}]}`,
		many.String(),
		`{"points":[{"id":1,"modality":"smell"}]}`,
		`{"points":[{"id":1}]} trailing garbage`,
		`{"points":[]}`,
		`{"points":[{"id":7},{"id":7,"modality":"text"},{"id":-3,"modality":"video","frames":64}]}`,
	} {
		f.Add([]byte(seed))
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if elapsed := time.Since(start); elapsed > timeout+time.Second {
			t.Fatalf("answered after %v (timeout %v)", elapsed, timeout)
		}
		switch rec.Code {
		case http.StatusOK:
			var pr predictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || len(pr.Scores) == 0 {
				t.Fatalf("200 with body %q (%v)", rec.Body.Bytes(), err)
			}
			for _, sc := range pr.Scores {
				if !(sc >= 0 && sc <= 1) {
					t.Fatalf("score %v is not a probability", sc)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// heldIDs wraps a resource so observing a listed entity reports on entered
// and blocks until release closes: a request naming one holds its run slot
// mid-featurization for as long as the test wants.
type heldIDs struct {
	resource.Resource
	ids     map[int]bool
	entered chan int
	release chan struct{}
}

func (r heldIDs) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	if r.ids[e.ID] {
		select {
		case r.entered <- e.ID:
		default:
		}
		<-r.release
	}
	r.Resource.Observe(dst, i, e, m, rng)
}

// TestPredictConcurrentSharedStore: concurrent /predict traffic through one
// shared store from two servers. A 5-s server's even IDs all answer 200 with
// the scores the library gives. A 1-ms server has every run slot held
// mid-featurization (the way occupy holds an executor) by requests for IDs
// nobody else asks for, so its odd IDs can never meet their deadline and all
// shed 504. The holders outlive their budget inside Featurize and shed 504
// too, and neither kind of canceled miss caches anything. A holder shed
// before featurization reaches the held resource posts again, and the wait
// for every slot to be held fails after a minute rather than hanging.
func TestPredictConcurrentSharedStore(t *testing.T) {
	fixture(t)
	const workers, perWorker = 6, 16
	tightSlots := runtime.GOMAXPROCS(0) // the tight server's batcher has as many run slots
	held := heldIDs{ids: map[int]bool{}, entered: make(chan int, tightSlots), release: make(chan struct{})}
	res := fx.store.Library().Resources()
	for i, r := range res {
		if r.Supports(synth.Image) {
			held.Resource = r
			res[i] = held
			break
		}
	}
	lib, err := resource.NewLibrary(fx.world, res...)
	if err != nil {
		t.Fatal(err)
	}
	store, err := featurestore.New(lib, 4096)
	if err != nil {
		t.Fatal(err)
	}
	serverWith := func(timeout time.Duration) (*Server, *httptest.Server) {
		s, err := New(Config{Store: store, World: fx.world, Seed: fxSeed, Timeout: timeout}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts
	}
	_, loose := serverWith(5 * time.Second)
	tightServer, tight := serverWith(time.Millisecond)
	post := func(ts *httptest.Server, id int) (*http.Response, error) {
		raw := fmt.Sprintf(`{"points":[{"id":%d}]}`, id)
		return ts.Client().Post(ts.URL+"/predict", "application/json", strings.NewReader(raw))
	}

	// Hold every run slot of the tight server on an odd ID above every
	// worker's, so a holder's miss, if it were cached, would show in Len.
	if got := cap(tightServer.bat.slots); got != tightSlots {
		t.Fatalf("tight server has %d run slots, want %d", got, tightSlots)
	}
	holdID := func(k int) int { return 2*workers*perWorker + 2*k + 1 }
	for k := range tightSlots {
		held.ids[holdID(k)] = true
	}
	var holders sync.WaitGroup
	var shedEarly atomic.Int64 // holder posts shed before they reached the held resource
	for k := range tightSlots {
		holders.Add(1)
		go func() {
			defer holders.Done()
			id := holdID(k)
			for {
				resp, err := post(tight, id)
				if err != nil {
					t.Errorf("holder %d: %v", id, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusGatewayTimeout {
					t.Errorf("holder %d: status %d, want %d", id, resp.StatusCode, http.StatusGatewayTimeout)
				}
				select {
				case <-held.release:
					return
				default:
					// Back before the release: its 1 ms ran out before
					// featurization reached the held resource. Post again.
					shedEarly.Add(1)
				}
			}
		}()
	}
	deadline := time.After(time.Minute)
	for n := 0; n < tightSlots; n++ {
		select {
		case <-held.entered:
		case <-deadline:
			close(held.release)
			holders.Wait()
			t.Fatalf("after 1 min only %d of %d holders hold a run slot (%d holder posts shed before featurization)", n, tightSlots, shedEarly.Load())
		}
	}

	var tightWG, looseWG sync.WaitGroup
	for w := range workers {
		wg := &looseWG
		if w%2 == 1 {
			wg = &tightWG
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts, want := loose, http.StatusOK
			if w%2 == 1 {
				ts, want = tight, http.StatusGatewayTimeout
			}
			for i := range perWorker {
				id := 2*(w/2*perWorker+i) + w%2
				resp, err := post(ts, id)
				if err != nil {
					t.Errorf("id %d: %v", id, err)
					return
				}
				var pr predictResponse
				switch {
				case resp.StatusCode != want:
					t.Errorf("id %d: status %d, want %d", id, resp.StatusCode, want)
				case want != http.StatusOK:
				case json.NewDecoder(resp.Body).Decode(&pr) != nil:
					t.Errorf("id %d: undecodable 200 body", id)
				case len(pr.Scores) != 1 || pr.Scores[0] != wantScore(t, fx.modelA, id):
					t.Errorf("id %d: scores %v, want [%v]", id, pr.Scores, wantScore(t, fx.modelA, id))
				}
				resp.Body.Close()
			}
		}()
	}
	tightWG.Wait() // every 504 is in: only now may the holders finish
	close(held.release)
	looseWG.Wait()
	holders.Wait()
	if got, want := store.Len(), workers/2*perWorker; got != want {
		t.Errorf("store holds %d vectors after %d served points and %d shed ones", got, want, workers/2*perWorker+tightSlots)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
func useExec(s *Server, exec ExecFunc) {
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
	useExec(s, func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
		mu.Lock()
		calls = append(calls, len(pts))
		mu.Unlock()
		return s.execBatch(ctx, pts, scores)
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
	useExec(s, func(ctx context.Context, pts []*synth.Point, scores []float64) (uint64, error) {
		seq, err := s.execBatch(ctx, pts, scores)
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

// slowOdd wraps a resource so observing an odd-ID entity takes delay: a
// request naming one outlives a tight budget in the middle of featurization.
type slowOdd struct {
	resource.Resource
	delay time.Duration
}

func (r slowOdd) Observe(dst *feature.Vector, i int, e *synth.Entity, m synth.Modality, rng *rand.Rand) {
	if e.ID%2 == 1 {
		time.Sleep(r.delay)
	}
	r.Resource.Observe(dst, i, e, m, rng)
}

// TestPredictConcurrentSharedStore: concurrent /predict traffic through one
// shared store from two servers. A 5-s server's even IDs all answer 200 with
// the scores the library gives; a 1-ms server's odd IDs outlive their budget
// mid-featurization and all shed 504, and their canceled misses cache nothing.
func TestPredictConcurrentSharedStore(t *testing.T) {
	fixture(t)
	res := fx.store.Library().Resources()
	for i, r := range res {
		if r.Supports(synth.Image) {
			res[i] = slowOdd{Resource: r, delay: 10 * time.Millisecond}
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
	serverWith := func(timeout time.Duration) *httptest.Server {
		s, err := New(Config{Store: store, World: fx.world, Seed: fxSeed, Timeout: timeout}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return ts
	}
	loose, tight := serverWith(5*time.Second), serverWith(time.Millisecond)

	const workers, perWorker = 6, 16
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts, want := loose, http.StatusOK
			if w%2 == 1 {
				ts, want = tight, http.StatusGatewayTimeout
			}
			for i := range perWorker {
				id := 2*(w/2*perWorker+i) + w%2
				raw := fmt.Sprintf(`{"points":[{"id":%d}]}`, id)
				resp, err := ts.Client().Post(ts.URL+"/predict", "application/json", strings.NewReader(raw))
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
	wg.Wait()
	if got, want := store.Len(), workers/2*perWorker; got != want {
		t.Errorf("store holds %d vectors after %d served points and %d shed ones", got, want, workers/2*perWorker)
	}
}

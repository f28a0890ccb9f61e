package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// TestReloadNonexistentPathKeepsServing: a reload pointing at a missing
// artifact returns 422 and the serving generation is untouched.
func TestReloadNonexistentPathKeepsServing(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	path := saveArtifact(t, fx.modelA, "a.xma")
	if resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": path}); resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	seqBefore := s.Registry().Current().Seq

	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": path + ".missing"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing-path reload: %d %s, want 422", resp.StatusCode, body)
	}
	if got := s.Registry().Current().Seq; got != seqBefore {
		t.Fatalf("seq moved %d → %d on a failed reload", seqBefore, got)
	}
	// The old model still serves, bit-identically.
	resp, body = postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: 7}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed reload: %d %s", resp.StatusCode, body)
	}
}

// TestReloadDoesNotEchoFileBytes: a reload naming a readable file that is
// not an artifact returns 422 without quoting any of the file's bytes.
func TestReloadDoesNotEchoFileBytes(t *testing.T) {
	_, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, []byte("TOPSECRET=hunter2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": path})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("non-artifact reload: %d %s, want 422", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("TOPSE")) {
		t.Fatalf("reload error echoes the file's bytes: %s", body)
	}
}

// badCanaryVector builds a canary vector with a +Inf numeric feature. Inf
// survives the ReLU hidden layer (unlike NaN, which ReLU floors to 0), and
// mixed-sign output weights over Inf activations produce a NaN score — so
// any real model fails canary validation on it.
func badCanaryVector(t *testing.T) *feature.Vector {
	t.Helper()
	schema := fx.store.Library().Schema()
	v := feature.NewVector(schema)
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		if d.Servable && d.Kind == feature.Numeric {
			v.MustSet(d.Name, feature.NumericValue(math.Inf(1)))
			return v
		}
	}
	t.Fatal("standard schema has no servable numeric feature")
	return nil
}

// TestReloadMidCanaryFailureLeavesSeqUnchanged: a structurally valid
// artifact that fails canary validation is refused with 422, Seq does not
// advance, and the incumbent keeps serving.
func TestReloadMidCanaryFailureLeavesSeqUnchanged(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	pathA := saveArtifact(t, fx.modelA, "a.xma")
	if resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": pathA}); resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	seqBefore := s.Registry().Current().Seq

	// Poison the canary batch: the next validation — and only it — fails.
	s.reg.canary = append(s.reg.canary, badCanaryVector(t))
	pathB := saveArtifact(t, fx.modelB, "b.xma")
	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": pathB})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("canary-failing reload: %d %s, want 422", resp.StatusCode, body)
	}
	cur := s.Registry().Current()
	if cur.Seq != seqBefore {
		t.Fatalf("seq moved %d → %d on canary failure", seqBefore, cur.Seq)
	}
	if want := wantScore(t, fx.modelA, 3); cur.Model.Predict(mustVec(t, 3)) != want {
		t.Fatal("incumbent model changed despite rejected reload")
	}
}

// mustVec featurizes one fixture point through the shared store.
func mustVec(t *testing.T, id int) *feature.Vector {
	t.Helper()
	pt := DerivePoint(fx.world, fxSeed, id, synth.Image, 0)
	vecs, err := fx.store.Featurize(context.Background(), mapreduce.Config{}, []*synth.Point{pt})
	if err != nil {
		t.Fatal(err)
	}
	return vecs[0]
}

// TestShedResponsesCarryRetryAfterOne pins the exact Retry-After value on
// every shed path: queue-full, breaker-open, and not-ready all advertise a
// 1-second backoff.
func TestShedResponsesCarryRetryAfterOne(t *testing.T) {
	fixture(t)
	s := &Server{met: NewMetrics()}
	cases := []struct {
		name string
		err  error
		code int
	}{
		{"queue full", ErrQueueFull, http.StatusTooManyRequests},
		{"breaker open", resource.ErrBreakerOpen, http.StatusServiceUnavailable},
		{"not ready", errNotReady, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeSubmitError(rec, tc.err)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Errorf("%s: Retry-After = %q, want \"1\"", tc.name, ra)
		}
	}
	if s.met.ShedBreaker.Load() != 1 {
		t.Error("breaker shed not counted")
	}
}

// TestServeDeadlineShedCounted: a request whose budget is already exhausted
// when it is admitted is shed with 504 and counted exactly once.
func TestServeDeadlineShedCounted(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, time.Nanosecond)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := range n {
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: i}}})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("expired-budget predict: %d %s, want 504", resp.StatusCode, body)
		}
	}
	if got := s.met.ShedDeadline.Load(); got != n {
		t.Errorf("ShedDeadline = %d after %d deadline sheds, want %d", got, n, n)
	}
}

package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossmodal/internal/fusion"
	"crossmodal/internal/synth"
)

// The lifecycle controller plugs time-varying traffic into the server via
// Config.PointSource; BuildPoint must consult it on every build — the
// featurestore is serving's only memo.
func TestPointSourceOverride(t *testing.T) {
	fixture(t)
	calls := 0
	s, err := New(Config{
		Store: fx.store,
		World: fx.world,
		Seed:  fxSeed,
		PointSource: func(id int, m synth.Modality, frames int) *synth.Point {
			calls++
			// Derive under a different base seed than the server's, so the
			// override is observable in the point's own seed.
			return DerivePoint(fx.world, fxSeed+1, id, m, frames)
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p1 := s.BuildPoint(5, synth.Image, 0)
	p2 := s.BuildPoint(5, synth.Image, 0)
	if calls != 2 {
		t.Errorf("PointSource called %d times for two builds, want 2", calls)
	}
	want := DerivePoint(fx.world, fxSeed+1, 5, synth.Image, 0)
	if p1.Seed != want.Seed || p2.Seed != want.Seed {
		t.Errorf("BuildPoint ignored PointSource: seeds %d, %d, want %d", p1.Seed, p2.Seed, want.Seed)
	}
	def := DerivePoint(fx.world, fxSeed, 5, synth.Image, 0)
	if p1.Seed == def.Seed {
		t.Error("sourced point matches the default derivation; override had no effect")
	}
}

// Served scores land in the serve_scores histogram so drift detectors can
// diff the distribution between windows from /metrics alone.
func TestScoreHistogramObserved(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().Scores.Count()
	ids := []int{0, 1, 2, 3}
	for _, id := range ids {
		resp, body := postJSON(t, ts.URL+"/predict", predictRequest{Points: []PointRequest{{ID: id}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict id %d: %d %s", id, resp.StatusCode, body)
		}
	}
	if got := s.Metrics().Scores.Count() - before; got != uint64(len(ids)) {
		t.Errorf("score histogram observed %d scores for %d predictions", got, len(ids))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "serve_scores_count") || !strings.Contains(text, "serve_scores_bucket{le=\"0.5\"}") {
		t.Error("/metrics does not expose the serve_scores histogram")
	}
}

// A lineage-stamped artifact survives the reload path: the registry carries
// the stamp and /admin/reload reports the trigger.
func TestReloadCarriesLineage(t *testing.T) {
	s, ts := newTestServer(t, BatcherConfig{}, 5*time.Second)
	path := filepath.Join(t.TempDir(), "model.xma")
	lg := &fusion.Lineage{Task: "CT1", Trigger: "drift:reports", Window: 3, Parent: "prev.xma"}
	if err := fusion.SaveFileLineage(path, fx.modelA, lg); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var rr map[string]any
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr["trigger"] != "drift:reports" || rr["parent"] != "prev.xma" {
		t.Errorf("reload response missing lineage: %v", rr)
	}
	cur := s.Registry().Current()
	if cur.Lineage == nil || cur.Lineage.Window != 3 || cur.Lineage.Task != "CT1" {
		t.Errorf("registry lineage = %+v", cur.Lineage)
	}

	// A v1 artifact (no lineage) still loads, with a nil stamp.
	plain := saveArtifact(t, fx.modelB, "plain.xma")
	resp, body = postJSON(t, ts.URL+"/admin/reload", map[string]string{"path": plain})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload v1: %d %s", resp.StatusCode, body)
	}
	if cur := s.Registry().Current(); cur.Lineage != nil {
		t.Errorf("v1 artifact carried lineage %+v", cur.Lineage)
	}
}

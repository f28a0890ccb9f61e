package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossmodal/internal/fusion"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/resource"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
)

// goodConfig mirrors the flag defaults.
func goodConfig() runConfig {
	return runConfig{
		addr: ":8099", fusionKind: "early", taskName: "CT1", scale: 0.1,
		seed: 17, cache: 65536, canaryN: 32,
		queue: 1024, timeout: 500 * time.Millisecond,
	}
}

func TestRunConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*runConfig)
		wantErr string // "" means valid
	}{
		{"defaults", func(*runConfig) {}, ""},
		{"train and serve", func(c *runConfig) { c.trainPath = "m.xma" }, ""},
		{"train only", func(c *runConfig) { c.trainPath = "m.xma"; c.trainOnly = true }, ""},
		{"zero canary", func(c *runConfig) { c.canaryN = 0 }, ""},
		{"devise fusion", func(c *runConfig) { c.fusionKind = "devise" }, ""},

		{"train-only without train", func(c *runConfig) { c.trainOnly = true }, "-train-only requires -train"},
		{"empty addr", func(c *runConfig) { c.addr = "" }, "-addr"},
		{"bad fusion", func(c *runConfig) { c.fusionKind = "late" }, "-fusion"},
		{"bad task", func(c *runConfig) { c.taskName = "CT9" }, "-task"},
		{"zero scale", func(c *runConfig) { c.scale = 0 }, "-scale"},
		{"negative scale", func(c *runConfig) { c.scale = -1 }, "-scale"},
		{"negative workers", func(c *runConfig) { c.workers = -1 }, "-workers"},
		{"negative cache", func(c *runConfig) { c.cache = -1 }, "-cache"},
		{"unbounded cache", func(c *runConfig) { c.cache = 0 }, "-cache"},
		{"negative canary", func(c *runConfig) { c.canaryN = -1 }, "-canary"},
		{"negative queue", func(c *runConfig) { c.queue = -1 }, "-queue"},
		{"zero queue", func(c *runConfig) { c.queue = 0 }, "-queue"},
		{"zero timeout", func(c *runConfig) { c.timeout = 0 }, "-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag (%q)", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidConfigFast: run() must fail on validation before
// doing any expensive setup.
func TestRunRejectsInvalidConfigFast(t *testing.T) {
	cfg := goodConfig()
	cfg.trainOnly = true // no trainPath
	start := time.Now()
	if err := run(cfg); err == nil {
		t.Fatal("run() accepted -train-only without -train")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("invalid config took %v to reject", elapsed)
	}
}

// TestTrainedServerScoresDerivedPoints: -train featurizes corpora whose IDs
// overlap live traffic's but whose entities are not DerivePoint's. A request
// for any of loadgen's default 4 096 image IDs must still score the point the
// server derives, exactly as in-process scoring does — no training vector may
// answer it from the serving store.
func TestTrainedServerScoresDerivedPoints(t *testing.T) {
	cfg := goodConfig()
	cfg.trainPath = filepath.Join(t.TempDir(), "m.xma")
	cfg.scale = 0.05
	cfg.canaryN = 0
	cfg.timeout = time.Minute
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, _, _, err := fusion.LoadFileLineage(cfg.trainPath)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		t.Fatal(err)
	}
	const perRequest = 1024
	for lo := 0; lo < 4096; lo += perRequest {
		var req struct {
			Points []serve.PointRequest `json:"points"`
		}
		pts := make([]*synth.Point, perRequest)
		for i := range pts {
			req.Points = append(req.Points, serve.PointRequest{ID: lo + i})
			pts[i] = serve.DerivePoint(world, cfg.seed, lo+i, synth.Image, 0)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("ids %d..: %d %s", lo, rec.Code, rec.Body)
		}
		var resp struct{ Scores []float64 }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		vecs, err := lib.Featurize(context.Background(), mapreduce.Config{}, pts)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range m.PredictBatch(vecs) {
			if resp.Scores[i] != want {
				t.Fatalf("image id %d served %v, in-process score of the derived point %v", lo+i, resp.Scores[i], want)
			}
		}
	}
}

// TestHTTPServerSetsTimeouts: the listener must bound how long a stalled or
// idle connection can hold a goroutine.
func TestHTTPServerSetsTimeouts(t *testing.T) {
	hs := serve.NewHTTPServer(":0", http.NotFoundHandler())
	for _, tc := range []struct {
		name string
		got  time.Duration
	}{
		{"ReadHeaderTimeout", hs.ReadHeaderTimeout},
		{"ReadTimeout", hs.ReadTimeout},
		{"IdleTimeout", hs.IdleTimeout},
	} {
		if tc.got <= 0 {
			t.Errorf("%s is unset", tc.name)
		}
	}
}

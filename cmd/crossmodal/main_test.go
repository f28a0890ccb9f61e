package main

import (
	"strings"
	"testing"
	"time"
)

// goodConfig mirrors the flag defaults.
func goodConfig() runConfig {
	return runConfig{task: "CT1", scale: 1.0, seed: 17, fusion: "early"}
}

func TestRunConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*runConfig)
		wantErr string // "" means valid
	}{
		{"defaults", func(*runConfig) {}, ""},
		{"other task", func(c *runConfig) { c.task = "CT5" }, ""},
		{"intermediate fusion", func(c *runConfig) { c.fusion = "intermediate" }, ""},
		{"devise fusion", func(c *runConfig) { c.fusion = "devise" }, ""},
		{"small scale", func(c *runConfig) { c.scale = 0.05 }, ""},
		{"explicit workers", func(c *runConfig) { c.workers = 4 }, ""},
		{"trace flags", func(c *runConfig) { c.tracePath = "t.json"; c.traceSummary = true }, ""},

		{"unknown task", func(c *runConfig) { c.task = "CT9" }, "CT9"},
		{"empty task", func(c *runConfig) { c.task = "" }, "task"},
		{"zero scale", func(c *runConfig) { c.scale = 0 }, "-scale"},
		{"negative scale", func(c *runConfig) { c.scale = -0.5 }, "-scale"},
		{"negative workers", func(c *runConfig) { c.workers = -1 }, "-workers"},
		{"bad fusion", func(c *runConfig) { c.fusion = "late" }, "fusion"},
		{"empty fusion", func(c *runConfig) { c.fusion = "" }, "fusion"},
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
				t.Fatalf("error %q does not name the problem (%q)", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidConfigFast: run() must fail on validation before any
// expensive setup (world construction, featurization).
func TestRunRejectsInvalidConfigFast(t *testing.T) {
	cfg := goodConfig()
	cfg.fusion = "late"
	start := time.Now()
	if err := run(cfg); err == nil {
		t.Fatal("run() accepted a bad fusion kind")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("invalid config took %v to reject", elapsed)
	}
}

// TestTinyScaleFloorsCorpusSizes: -scale 0.00001 used to round every corpus
// to zero rows and die in synth's size validation; every binary now floors at
// one point per corpus, so the run reaches curation, which names the real
// problem with a one-point corpus.
func TestTinyScaleFloorsCorpusSizes(t *testing.T) {
	cfg := goodConfig()
	cfg.scale = 0.00001
	err := pipelineReport(cfg)
	if err == nil || strings.Contains(err.Error(), "dataset sizes must be positive") || !strings.Contains(err.Error(), "both classes") {
		t.Fatalf("-scale 0.00001: %v, want the miner's both-classes error", err)
	}
}

// TestPipelineReportEveryFusionKind: the comparison table trains text-only
// and image-only models after the main run; those must not inherit a fusion
// kind that needs both modalities (-fusion devise used to fail here, after
// the whole pipeline had run).
func TestPipelineReportEveryFusionKind(t *testing.T) {
	for _, fusion := range []string{"devise", "intermediate"} {
		cfg := goodConfig()
		cfg.fusion, cfg.scale = fusion, 0.05
		if err := pipelineReport(cfg); err != nil {
			t.Fatalf("-fusion %s: %v", fusion, err)
		}
	}
}

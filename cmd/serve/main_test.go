package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"crossmodal/internal/serve"
)

// goodConfig mirrors the flag defaults.
func goodConfig() runConfig {
	return runConfig{
		addr: ":8099", fusionKind: "early", taskName: "CT1", scale: 0.1,
		seed: 17, cache: 65536, canaryN: 32, maxBatch: 64,
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
		{"negative canary", func(c *runConfig) { c.canaryN = -1 }, "-canary"},
		{"negative max-batch", func(c *runConfig) { c.maxBatch = -1 }, "-max-batch"},
		{"negative queue", func(c *runConfig) { c.queue = -1 }, "-queue"},
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

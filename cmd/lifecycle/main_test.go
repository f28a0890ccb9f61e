package main

import (
	"strings"
	"testing"

	"crossmodal/internal/lifecycle"
)

// TestRunConfigValidate: each bad flag combination is refused by name
// before any world is built; the flag defaults pass.
func TestRunConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*runConfig)
		wantErr string // "" means valid
	}{
		{"defaults", func(*runConfig) {}, ""},
		{"all cores", func(c *runConfig) { c.workers = 0 }, ""},
		{"static world ignores drift window", func(c *runConfig) { c.simDrift, c.driftWindow = false, 0 }, ""},
		{"zero window", func(c *runConfig) { c.window = 0 }, "-window"},
		{"negative windows", func(c *runConfig) { c.windows = -1 }, "-windows"},
		{"drift at window 0", func(c *runConfig) { c.driftWindow = 0 }, "-drift-window"},
		{"drift past the schedule", func(c *runConfig) { c.driftWindow = 8 }, "-drift-window"},
		{"zero scale", func(c *runConfig) { c.scale = 0 }, "-scale"},
		{"negative workers", func(c *runConfig) { c.workers = -1 }, "-workers"},
		{"bad task", func(c *runConfig) { c.taskName = "CT9" }, "-task"},
	} {
		c := runConfig{taskName: "CT1", seed: 17, window: 300, windows: 8, driftWindow: 3,
			shift: 2.5, decay: 0.35, simDrift: true, scale: 0.05, workers: 1}
		tc.mutate(&c)
		err := c.validate()
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: validate() = %v, want nil", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: validate() = %v, want an error naming %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestCheckResult: a drift run passes only with a promotion; a static run
// fails on any detection, even one whose retrains all failed.
func TestCheckResult(t *testing.T) {
	for _, tc := range []struct {
		name     string
		res      lifecycle.Result
		simDrift bool
		ok       bool
	}{
		{"drift promoted", lifecycle.Result{Detections: 1, Retrains: 1, Promotions: 1}, true, true},
		{"drift never promoted", lifecycle.Result{Detections: 2, Retrains: 2, Rejections: 2}, true, false},
		{"drift never detected", lifecycle.Result{}, true, false},
		{"static quiet", lifecycle.Result{Windows: 8}, false, true},
		{"static detection without retrain", lifecycle.Result{Detections: 1}, false, false},
		{"static retrain", lifecycle.Result{Detections: 1, Retrains: 1}, false, false},
	} {
		if err := checkResult(&tc.res, tc.simDrift); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

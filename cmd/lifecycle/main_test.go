package main

import (
	"net/http"
	"testing"
	"time"

	"crossmodal/internal/lifecycle"
	"crossmodal/internal/serve"
)

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

// TestHTTPServerSetsTimeouts: the in-process server must bound how long a
// stalled or idle connection can hold a goroutine.
func TestHTTPServerSetsTimeouts(t *testing.T) {
	hs := serve.NewHTTPServer("", http.NotFoundHandler())
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

package main

import (
	"net/http"
	"testing"
	"time"

	"crossmodal/internal/serve"
)

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

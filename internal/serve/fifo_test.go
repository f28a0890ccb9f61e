//go:build unix

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestReloadRefusesFIFO: a reload naming a FIFO that has no writer answers
// 422 at once, and the serving generation stays; opening it blocking would
// pin the handler's goroutine and an OS thread forever.
func TestReloadRefusesFIFO(t *testing.T) {
	s, _ := newTestServer(t, BatcherConfig{}, 5*time.Second)
	if _, err := s.Registry().Install(fx.modelA, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.xma")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	body, err := json.Marshal(reloadRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", bytes.NewReader(body)))
		done <- rec
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("reload of a FIFO: %d %s, want 422", rec.Code, rec.Body.Bytes())
		}
	case <-time.After(2 * time.Second):
		// Give the blocked open a writer, so the handler can return.
		if w, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
		<-done
		t.Fatal("reload of a FIFO has not answered after 2 s")
	}
	if seq := s.Registry().Current().Seq; seq != 1 {
		t.Errorf("seq = %d after a refused reload, want 1", seq)
	}
}

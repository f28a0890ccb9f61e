package disk

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossmodal/internal/feature"
)

// reopen opens dir fresh and registers cleanup.
func reopen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedStore writes nChunks committed chunks and closes the store.
func seedStore(t *testing.T, dir string, nChunks int) {
	t.Helper()
	s, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for c := 0; c < nChunks; c++ {
		appendTestChunk(t, s, 1000*c, 40, int64(c))
	}
	s.Close()
}

// wantRecovery reopens dir and asserts the committed-prefix length and that
// the store still scans clean end to end.
func wantRecovery(t *testing.T, dir string, wantChunks, wantQuarantined int) *Store {
	t.Helper()
	s := reopen(t, dir, Options{})
	if got := s.Chunks(); got != wantChunks {
		t.Fatalf("recovered %d chunks, want %d (quarantined: %v)", got, wantChunks, s.Quarantined())
	}
	if got := len(s.Quarantined()); got != wantQuarantined {
		t.Fatalf("quarantined %d files %v, want %d", got, s.Quarantined(), wantQuarantined)
	}
	err := s.ScanChunks(context.Background(), func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error { return nil })
	if err != nil {
		t.Fatalf("recovered store does not scan: %v", err)
	}
	for _, q := range s.Quarantined() {
		if !strings.HasSuffix(q, ".quarantined") {
			t.Fatalf("quarantined file %q not renamed", q)
		}
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("quarantined file missing: %v", err)
		}
	}
	return s
}

// segPath returns the path of chunk's segment, which must exist.
func segPath(t *testing.T, dir string, chunk int) string {
	t.Helper()
	path := filepath.Join(dir, segName(chunk))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no segment for chunk %d: %v", chunk, err)
	}
	return path
}

func TestCrashTornSegmentWrite(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 3)
	// Truncate the chunk-1 segment mid-payload: a torn write that the
	// rename protocol can't produce but disk corruption can.
	path := segPath(t, dir, 1)
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	// Chunk 0 survives; chunk 1 (torn) and chunk 2 (past the break) are
	// quarantined in full: two segments and two markers.
	wantRecovery(t, dir, 1, 4)
}

func TestCrashBitFlipCaughtByCRC(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 2)
	path := segPath(t, dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+3] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantRecovery(t, dir, 1, 2)
}

func TestCrashZeroLengthSegment(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 2)
	path := segPath(t, dir, 0)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	// Chunk 0 broken ⇒ nothing is committed; everything quarantined.
	entries, _ := os.ReadDir(dir)
	wantRecovery(t, dir, 0, len(entries))
}

func TestCrashPartialRename(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 2)
	// Simulate a crash between the segment rename and the marker rename of
	// a third chunk: segment present, no marker.
	seedOne := filepath.Join(dir, segName(2))
	if err := os.WriteFile(seedOne, encodeTestSegment(t, testSchema(), 5, 99), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a leftover temp file from the interrupted writer.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123456"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := wantRecovery(t, dir, 2, 2)
	// The store resumes appending at chunk 2 as if the failed attempt
	// never happened.
	appendTestChunk(t, s, 2000, 40, 2)
	if s.Chunks() != 3 {
		t.Fatalf("append after recovery produced %d chunks, want 3", s.Chunks())
	}
}

func TestCrashMarkerPastGap(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	// A marker for chunk 3 with no chunks 1–2: not contiguous, debris.
	if err := os.WriteFile(filepath.Join(dir, markerName(3)), []byte("ok\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantRecovery(t, dir, 1, 1)
}

func TestCrashMarkerWithoutSegments(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	if err := os.WriteFile(filepath.Join(dir, markerName(1)), []byte("ok\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantRecovery(t, dir, 1, 1)
}

// TestCrashInjectedAtEveryCommitPoint drives three AppendChunks — six
// renames, segment then marker per chunk — with a hook that fails at the
// k'th rename, for every k, and checks the invariant the streaming pipeline
// depends on: after any mid-commit crash, reopening recovers exactly the
// chunks whose markers landed, and the next append continues the sequence.
func TestCrashInjectedAtEveryCommitPoint(t *testing.T) {
	boom := errors.New("injected crash")
	for fail := 1; fail <= 6; fail++ {
		t.Run(fmt.Sprintf("rename%d", fail), func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir, 1)

			calls := 0
			s, err := Open(dir, testSchema(), Options{CommitHook: func(op, path string) error {
				if calls++; calls == fail {
					return boom
				}
				if want := [2]string{"segment", "marker"}[(calls-1)%2]; op != want {
					t.Errorf("rename %d is a %s, want a %s", calls, op, want)
				}
				return nil
			}})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for c := 0; c < 3 && calls < fail; c++ {
				vecs := makeVecs(t, s.Schema(), 40, int64(c))
				ids := make([]int, 40)
				for i := range ids {
					ids[i] = 5000 + 100*c + i
				}
				err = s.AppendChunk(context.Background(), ids, make([]int8, 40), vecs)
				if calls < fail && err != nil {
					t.Fatalf("AppendChunk %d: %v", c, err)
				}
			}
			s.Close()
			if !errors.Is(err, boom) {
				t.Fatalf("AppendChunk error = %v, want injected crash", err)
			}

			// Whatever the crash point, recovery yields chunk 0 plus every
			// appended chunk whose marker rename ran (the even renames).
			wantChunks := 1 + (fail-1)/2
			s2 := reopen(t, dir, Options{})
			if got := s2.Chunks(); got != wantChunks {
				t.Fatalf("recovered %d chunks, want %d", got, wantChunks)
			}
			// Resume: the next append always lands as the next sequence
			// number and round-trips.
			appendTestChunk(t, s2, 9000, 25, 7)
			if got := s2.Chunks(); got != wantChunks+1 {
				t.Fatalf("post-recovery append: %d chunks, want %d", got, wantChunks+1)
			}
			got, err := s2.Find(context.Background(), []int{9000 + 24})
			if err != nil || len(got) != 1 {
				t.Fatalf("Find after recovery: %v (%d hits)", err, len(got))
			}
		})
	}
}

func TestQuarantineIdempotent(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 2)
	path := segPath(t, dir, 1)
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	s := wantRecovery(t, dir, 1, 2)
	s.Close()
	// A second recovery pass finds the debris already renamed and leaves
	// it alone — no error, no double-quarantine.
	s2 := reopen(t, dir, Options{})
	if got := s2.Chunks(); got != 1 {
		t.Fatalf("second recovery: %d chunks, want 1", got)
	}
	if got := len(s2.Quarantined()); got != 0 {
		t.Fatalf("second recovery re-quarantined %v", s2.Quarantined())
	}
}

// TestAppendRefusedAfterLostCommit: a chunk whose marker lands but whose
// segment cannot be reopened is committed on disk and unknown in memory.
// The store must refuse the next append — which would otherwise reuse the
// chunk's sequence number and silently replace it — until it is reopened.
func TestAppendRefusedAfterLostCommit(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	truncated := false
	s, err := Open(dir, testSchema(), Options{CommitHook: func(op, path string) error {
		if op == "marker" && !truncated {
			truncated = true
			if err := os.Truncate(segPath(t, dir, 1), 0); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i, base := range []int{5000, 6000} {
		vecs := makeVecs(t, s.Schema(), 40, int64(i))
		ids := make([]int, 40)
		for r := range ids {
			ids[r] = base + r
		}
		if err := s.AppendChunk(context.Background(), ids, make([]int8, 40), vecs); err == nil {
			t.Fatalf("append %d succeeded after chunk 1 committed unreadable", i)
		}
	}
	if got := s.Chunks(); got != 1 {
		t.Fatalf("store holds %d chunks in memory, want 1", got)
	}

	// Reopening quarantines the unreadable chunk; appends resume after chunk 0.
	s2 := wantRecovery(t, dir, 1, 2)
	appendTestChunk(t, s2, 9000, 25, 7)
	if got, err := s2.Find(context.Background(), []int{5000, 6000, 9000}); err != nil || len(got) != 1 || got[9000] == nil {
		t.Fatalf("Find after recovery: %v, hits %v, want only 9000", err, got)
	}
}

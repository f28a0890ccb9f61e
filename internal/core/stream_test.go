package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// Streaming fixture: its own (smaller) corpus so stream tests stay fast and
// independent of the shared testEnv dataset.
var (
	streamOnce  sync.Once
	streamWorld *synth.World
	streamLib   *resource.Library
	streamTask  *synth.Task
)

func streamEnv(t *testing.T) (*resource.Library, *synth.World, *synth.Task) {
	t.Helper()
	streamOnce.Do(func() {
		w := synth.MustWorld(synth.DefaultConfig())
		lib, err := resource.StandardLibrary(w)
		if err != nil {
			t.Fatal(err)
		}
		task, err := synth.TaskByName("CT1")
		if err != nil {
			t.Fatal(err)
		}
		streamWorld, streamLib, streamTask = w, lib, task
	})
	if streamLib == nil {
		t.Fatal("stream environment setup failed")
	}
	return streamLib, streamWorld, streamTask
}

func streamDSConfig() synth.DatasetConfig {
	return synth.DatasetConfig{Seed: 31, NumText: 800, NumUnlabeledImage: 400, NumHandLabelPool: 120, NumTest: 150}
}

func streamOptions() Options {
	o := DefaultOptions()
	o.Seed = 31
	o.Workers = 2
	o.MaxGraphSeeds = 300
	o.GraphDevNodes = 120
	return o
}

func newStreamPipeline(t *testing.T, opts Options) *Pipeline {
	t.Helper()
	lib, _, _ := streamEnv(t)
	p, err := NewPipeline(lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runStreamed(t *testing.T, opts Options, sopts StreamOptions) *StreamedCuration {
	t.Helper()
	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)
	sc, err := p.CurateStreamed(context.Background(), w, task, streamDSConfig(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// streamedEqual asserts two streamed curations are bit-identical in every
// training-relevant output.
func streamedEqual(t *testing.T, got, want *StreamedCuration) {
	t.Helper()
	if len(got.ProbLabels) != len(want.ProbLabels) {
		t.Fatalf("prob labels: %d vs %d", len(got.ProbLabels), len(want.ProbLabels))
	}
	for i := range got.ProbLabels {
		if math.Float64bits(got.ProbLabels[i]) != math.Float64bits(want.ProbLabels[i]) {
			t.Fatalf("prob[%d] = %v vs %v (bit drift)", i, got.ProbLabels[i], want.ProbLabels[i])
		}
		if got.Covered[i] != want.Covered[i] {
			t.Fatalf("covered[%d] = %v vs %v", i, got.Covered[i], want.Covered[i])
		}
	}
	g, w := got.Report, want.Report
	if g.LFCount != w.LFCount || g.PropIters != w.PropIters || g.Cuts != w.Cuts {
		t.Errorf("report drift: lfs %d vs %d, iters %d vs %d, cuts %+v vs %+v",
			g.LFCount, w.LFCount, g.PropIters, w.PropIters, g.Cuts, w.Cuts)
	}
	exact := func(name string, a, b float64) {
		if a != b {
			t.Errorf("%s = %v vs %v (bit drift)", name, a, b)
		}
	}
	exact("ws_precision", g.WSPrecision, w.WSPrecision)
	exact("ws_recall", g.WSRecall, w.WSRecall)
	exact("ws_f1", g.WSF1, w.WSF1)
	exact("ws_coverage", g.WSCoverage, w.WSCoverage)
}

// asStreamed carries an in-memory curation's outputs for streamedEqual.
func asStreamed(cur *Curation) *StreamedCuration {
	return &StreamedCuration{ProbLabels: cur.ProbLabels, Covered: cur.Covered, Report: cur.Report}
}

// TestCurateStreamedMatchesCurate: the streamed path and the in-memory path
// must produce bit-identical curations at the same configuration — the
// package-internal version of the contract's streamed runs, comparing every
// probabilistic label instead of a digest.
func TestCurateStreamedMatchesCurate(t *testing.T) {
	_, w, task := streamEnv(t)
	opts := streamOptions()
	p := newStreamPipeline(t, opts)

	ds, err := synth.BuildDataset(w, task, streamDSConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Curate(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}

	sc := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})
	streamedEqual(t, sc, asStreamed(cur))
	// Ingest refills the text and image chunks it is done with; the pool and
	// test points it keeps must still be the dataset's.
	for name, pts := range map[string][2][]*synth.Point{"pool": {sc.Pool, ds.HandLabelPool}, "test": {sc.Test, ds.TestImage}} {
		got, want := pts[0], pts[1]
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, dataset has %d", name, len(got), len(want))
		}
		for i, a := range want {
			if b := got[i]; a.ID != b.ID || a.Seed != b.Seed || a.Label != b.Label || !reflect.DeepEqual(a.Entity, b.Entity) {
				t.Fatalf("%s point %d: id %d label %d entity %+v, dataset id %d label %d entity %+v",
					name, i, b.ID, b.Label, *b.Entity, a.ID, a.Label, *a.Entity)
			}
		}
	}

	// Materialize must hand back the stored vectors bit-exactly and in order.
	mat, err := sc.Materialize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.TextVecs) != len(cur.TextVecs) || len(mat.ImageVecs) != len(cur.ImageVecs) {
		t.Fatalf("materialized %d/%d vecs, in-memory %d/%d",
			len(mat.TextVecs), len(mat.ImageVecs), len(cur.TextVecs), len(cur.ImageVecs))
	}
	for i := range cur.TextVecs {
		if mat.TextVecs[i].String() != cur.TextVecs[i].String() {
			t.Fatalf("text vec %d drifted through the store:\n  store: %s\n  mem:   %s",
				i, mat.TextVecs[i], cur.TextVecs[i])
		}
	}
}

// TestCurateStreamedRefusesDirtyStore: without Resume, a non-empty store
// directory is an error, not silent reuse.
func TestCurateStreamedRefusesDirtyStore(t *testing.T) {
	dir := t.TempDir()
	opts := streamOptions()
	runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128})

	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)
	_, err := p.CurateStreamed(context.Background(), w, task, streamDSConfig(), StreamOptions{Dir: dir, ChunkSize: 128})
	if err == nil || !strings.Contains(err.Error(), "already has data") {
		t.Fatalf("dirty store not refused: %v", err)
	}
}

// TestCurateStreamedRequiresDir and mined-LF gating.
func TestCurateStreamedConfigErrors(t *testing.T) {
	opts := streamOptions()
	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)
	if _, err := p.CurateStreamed(context.Background(), w, task, streamDSConfig(), StreamOptions{}); err == nil {
		t.Fatal("missing Dir accepted")
	}

	opts.LFSource = ExpertLFs
	pe := newStreamPipeline(t, opts)
	_, err := pe.CurateStreamed(context.Background(), w, task, streamDSConfig(), StreamOptions{Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "mined LFs only") {
		t.Fatalf("expert LFs not rejected: %v", err)
	}
}

// TestCurateStreamedResumeAfterIngestCrash: kill the run mid-ingest (after
// some chunks committed), then reopen with Resume — the committed prefix is
// not re-featurized and the final curation is bit-identical to a run that
// never crashed.
func TestCurateStreamedResumeAfterIngestCrash(t *testing.T) {
	opts := streamOptions()
	clean := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})

	dir := t.TempDir()
	boom := errors.New("injected crash")
	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)
	_, err := p.CurateStreamed(context.Background(), w, task, streamDSConfig(), StreamOptions{
		Dir: dir, ChunkSize: 128,
		ChunkHook: func(stage string, chunk int) error {
			if stage == "ingest:image" && chunk == 1 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("injected crash not surfaced: %v", err)
	}

	// Resume: count segment commits to prove the committed prefix (all 7 text
	// chunks + 2 image chunks) was skipped, not re-featurized and re-written.
	var commits int
	resumed := runStreamed(t, opts, StreamOptions{
		Dir: dir, ChunkSize: 128, Resume: true,
		CommitHook: func(op, path string) error {
			if op == "marker" {
				commits++
			}
			return nil
		},
	})
	streamedEqual(t, resumed, clean)
	textChunks, imageChunks := 7, 4 // ceil(800/128), ceil(400/128)
	want := textChunks + imageChunks - (textChunks + 2)
	if commits != want {
		t.Errorf("resume committed %d chunks, want %d (committed prefix must be reused)", commits, want)
	}
}

// TestCurateStreamedResumeAfterTornCommit: crash between segment writes and
// the commit marker, leaving orphaned segment files. Reopening must
// quarantine the debris and the resumed run must re-featurize exactly that
// chunk, landing bit-identical to a clean run.
func TestCurateStreamedResumeAfterTornCommit(t *testing.T) {
	opts := streamOptions()
	clean := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})

	dir := t.TempDir()
	boom := errors.New("torn commit")
	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)
	_, err := p.CurateStreamed(context.Background(), w, task, streamDSConfig(), StreamOptions{
		Dir: dir, ChunkSize: 128,
		CommitHook: func(op, path string) error {
			// Segments for image chunk 2 land on disk; its marker never does.
			if op == "marker" && strings.Contains(path, "image") && strings.Contains(path, "c000002") {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("injected torn commit not surfaced: %v", err)
	}

	resumed := runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128, Resume: true})
	streamedEqual(t, resumed, clean)
	if q := resumed.Image.Quarantined(); len(q) == 0 {
		t.Error("torn segments were not quarantined on reopen")
	}
}

// TestCurateStreamedResumeAfterBitFlip: segment payload checksums are always
// verified at open — there is no unverified open for Resume to reach — so one
// flipped payload byte in a committed segment quarantines its chunk and the
// ones after it, and the resumed run re-featurizes exactly those, landing
// bit-identical to a clean run.
func TestCurateStreamedResumeAfterBitFlip(t *testing.T) {
	opts := streamOptions()
	clean := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})

	dir := t.TempDir()
	if err := runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128}).Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "image", "c000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01 // the last payload byte; the trailing four are its CRC
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128, Resume: true})
	streamedEqual(t, resumed, clean)
	if q := resumed.Image.Quarantined(); len(q) == 0 {
		t.Error("the flipped segment was not quarantined on reopen")
	}
	if want := 7 + 1; resumed.ReusedChunks != want { // all text chunks, image chunk 0
		t.Errorf("resume reused %d chunks, want %d", resumed.ReusedChunks, want)
	}
}

// TestCurateStreamedResumeOverFormat1Store: a store written in segment
// format 1 (one cNNNNNN-sNNN.seg per shard, a 48-byte version-1 header, a row
// ordinal column) opens empty with every file quarantined, so a Resume run
// over it re-featurizes every chunk and lands bit-identical to a clean run.
func TestCurateStreamedResumeOverFormat1Store(t *testing.T) {
	opts := streamOptions()
	clean := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})

	dir := t.TempDir()
	if err := runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128}).Close(); err != nil {
		t.Fatal(err)
	}
	files := map[string]int{}
	for _, corpus := range []string{"text", "image"} {
		files[corpus] = 2 * format1Store(t, filepath.Join(dir, corpus))
	}

	resumed := runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128, Resume: true})
	streamedEqual(t, resumed, clean)
	if resumed.ReusedChunks != 0 {
		t.Errorf("resume reused %d format-1 chunks, want 0", resumed.ReusedChunks)
	}
	for corpus, st := range map[string]*disk.Store{"text": resumed.Text, "image": resumed.Image} {
		if q := st.Quarantined(); len(q) != files[corpus] {
			t.Errorf("%s: quarantined %d files, want all %d format-1 files: %v", corpus, len(q), files[corpus], q)
		}
	}
}

// format1Store rewrites every segment of the store at dir into format 1 as
// shard 0 of 1, under its format-1 name, and returns how many it rewrote.
func format1Store(t *testing.T, dir string) int {
	t.Helper()
	le := binary.LittleEndian
	segs, err := filepath.Glob(filepath.Join(dir, "c*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments under %s (err %v)", dir, err)
	}
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := int(le.Uint32(data[16:]))
		payload := data[40 : len(data)-4]
		v1 := append([]byte(nil), payload[:8*rows]...) // IDs, then ordinals
		for r := 0; r < rows; r++ {
			v1 = le.AppendUint32(v1, uint32(r))
		}
		v1 = append(v1, payload[8*rows:]...)
		out := append([]byte(nil), data[:8]...)                               // magic
		out = le.AppendUint32(le.AppendUint32(le.AppendUint32(out, 1), 0), 1) // version, shard, nshards
		out = append(out, data[12:28]...)                                     // chunk, rows, schema hash
		out = le.AppendUint64(out, uint64(len(v1)))
		out = le.AppendUint32(out, crc32.ChecksumIEEE(out))
		out = le.AppendUint32(append(out, v1...), crc32.ChecksumIEEE(v1))
		if err := os.WriteFile(strings.TrimSuffix(path, ".seg")+"-s000.seg", out, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	return len(segs)
}

// TestCurateStreamedWindowed: a graph window smaller than the corpus still
// completes; rows past the window simply get no propagation vote. The
// windowed run must agree with the full run on everything upstream of
// propagation (mined LF count), and its outputs keep corpus shape.
func TestCurateStreamedWindowed(t *testing.T) {
	opts := streamOptions()
	full := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})
	windowed := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128, GraphWindow: 150})

	if len(windowed.ProbLabels) != len(full.ProbLabels) {
		t.Fatalf("windowed probs %d, full %d", len(windowed.ProbLabels), len(full.ProbLabels))
	}
	if windowed.Report.LFCount != full.Report.LFCount {
		t.Errorf("window changed LF count: %d vs %d (mining must not depend on the graph window)",
			windowed.Report.LFCount, full.Report.LFCount)
	}
	if c := windowed.Report.WSCoverage; c <= 0 || c > 1 {
		t.Errorf("windowed coverage %v out of range", c)
	}
}

// streamedPeakHeap runs a streamed curation over a corpus scaled by mult and
// returns the post-GC heap high-water mark sampled after every chunk step.
// Numeric quantile mining is off (its candidate buffer is O(corpus) by
// design) and the graph window is pinned, so resident state should be
// bounded by the chunk size, not the corpus.
func streamedPeakHeap(t *testing.T, mult int) uint64 {
	t.Helper()
	opts := streamOptions()
	opts.Mining.NumericQuantiles = 0
	var peak uint64
	probe := func(stage string, chunk int) error {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return nil
	}
	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)
	cfg := synth.DatasetConfig{Seed: 47, NumText: 1200 * mult, NumUnlabeledImage: 600 * mult, NumHandLabelPool: 100, NumTest: 100}
	sc, err := p.CurateStreamed(context.Background(), w, task, cfg, StreamOptions{
		Dir: t.TempDir(), ChunkSize: 256, GraphWindow: 256, ChunkHook: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	return peak
}

// TestCurateStreamedMemoryCeiling is the scale gate from the issue: growing
// the corpus 10x at a fixed chunk size and graph window must leave the heap
// high-water mark essentially flat — the streamed path's memory is bounded
// by configuration, not corpus size. The generous slack absorbs the real
// O(n) residue (int8 labels, vote bytes, float64 probs) and GC jitter while
// still failing hard if any stage silently materializes the corpus.
func TestCurateStreamedMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	small := streamedPeakHeap(t, 1)
	big := streamedPeakHeap(t, 10)
	t.Logf("peak live heap: %d KiB at 1x, %d KiB at 10x", small>>10, big>>10)
	if big > 2*small+32<<20 {
		t.Errorf("heap high-water grew from %d KiB to %d KiB over a 10x corpus; streamed memory is not flat",
			small>>10, big>>10)
	}
}

// TestScaleSmokeStreamed is the `make scale-smoke` gate: a 10^5-entity
// streamed curation driven to completion through repeated injected commit
// crashes. A seeded hash of each commit's path and attempt ordinal decides
// deterministically which store commits die; every crash aborts the run mid-ingest, and the next
// attempt resumes from the last committed chunk. The run must finish within
// a bounded number of attempts with the corpus fully ingested and a sane
// weak-supervision report — proving crash recovery composes with scale, not
// just with the small fixtures above. Opt-in via CROSSMODAL_SCALE_SMOKE=1
// (it streams 100k points; see the Makefile target, which also turns on
// -race).
func TestScaleSmokeStreamed(t *testing.T) {
	if os.Getenv("CROSSMODAL_SCALE_SMOKE") == "" {
		t.Skip("scale smoke: set CROSSMODAL_SCALE_SMOKE=1 or run `make scale-smoke`")
	}
	entities := 100_000
	if s := os.Getenv("CROSSMODAL_SCALE_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1000 {
			t.Fatalf("bad CROSSMODAL_SCALE_N %q", s)
		}
		entities = n
	}
	nText := entities * 3 / 5
	nImage := entities - nText
	cfg := synth.DatasetConfig{Seed: 53, NumText: nText, NumUnlabeledImage: nImage, NumHandLabelPool: 500, NumTest: 500}

	opts := streamOptions()
	opts.MaxGraphSeeds = 600
	opts.GraphDevNodes = 200
	opts.Mining.NumericQuantiles = 0 // quantile candidate buffers are O(corpus)
	p := newStreamPipeline(t, opts)
	_, w, task := streamEnv(t)

	// Deterministic crash plan: about 2% of commits die, decided by a hash
	// of the operation, the target path under dir and a per-path attempt
	// ordinal, so a commit that died once draws afresh on a later attempt
	// instead of wedging the run forever.
	dir := t.TempDir()
	const crashRate = 0.02
	errCrash := errors.New("scale smoke: injected commit crash")
	attempts := make(map[string]int)
	var commits, crashes int
	hook := func(op, path string) error {
		commits++
		a := attempts[path]
		attempts[path]++
		draw := xrand.HashString(7+uint64(a), op+" "+strings.TrimPrefix(path, dir))
		if float64(draw>>11)/(1<<53) < crashRate {
			crashes++
			return fmt.Errorf("%w at %s %s", errCrash, op, path)
		}
		return nil
	}

	sopts := StreamOptions{Dir: dir, ChunkSize: 2048, GraphWindow: 2000, CommitHook: hook}
	var sc *StreamedCuration
	const maxAttempts = 30
	attempt := 0
	for ; attempt < maxAttempts; attempt++ {
		var err error
		sc, err = p.CurateStreamed(context.Background(), w, task, cfg, sopts)
		if err == nil {
			break
		}
		if !errors.Is(err, errCrash) {
			t.Fatalf("attempt %d died on a non-injected error: %v", attempt, err)
		}
		sopts.Resume = true
	}
	if sc == nil {
		t.Fatalf("did not complete within %d attempts (%d injected crashes)", maxAttempts, crashes)
	}
	defer sc.Close()
	t.Logf("completed after %d attempts, %d injected crashes in %d commits, %d+%d rows",
		attempt+1, crashes, commits, sc.Text.Rows(), sc.Image.Rows())
	if crashes == 0 {
		t.Error("crash injection never fired; the smoke exercised nothing")
	}
	if sc.Text.Rows() != nText || sc.Image.Rows() != nImage {
		t.Fatalf("ingested %d text / %d image rows, want %d / %d", sc.Text.Rows(), sc.Image.Rows(), nText, nImage)
	}
	if len(sc.ProbLabels) != nImage || len(sc.Covered) != nImage {
		t.Fatalf("curation shape: %d probs, %d covered, want %d", len(sc.ProbLabels), len(sc.Covered), nImage)
	}
	if c := sc.Report.WSCoverage; c <= 0 || c > 1 {
		t.Errorf("ws coverage %v out of range", c)
	}
	if sc.Report.LFCount <= 0 {
		t.Errorf("no LFs mined at scale")
	}
}

// TestCurateStreamedChunkInvariance: the curation must not depend on the
// chunk size, including sizes that do not divide any corpus.
func TestCurateStreamedChunkInvariance(t *testing.T) {
	opts := streamOptions()
	want := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})
	for _, chunk := range []int{97, 400} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			got := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: chunk})
			streamedEqual(t, got, want)
		})
	}
}

// TestIngestOverlapFailures: ingest's three stages run on three goroutines,
// so each way a run can die mid-ingest — a commit that fails, an ingest hook
// that fails, the caller's context ending — must surface that error, leave no
// chunk past the failing one committed, and return with every goroutine it
// started gone. A Resume afterwards reuses exactly the committed prefix and
// lands bit-identical to a run that never failed.
func TestIngestOverlapFailures(t *testing.T) {
	opts := streamOptions()
	clean := runStreamed(t, opts, StreamOptions{Dir: t.TempDir(), ChunkSize: 128})
	lib, w, task := streamEnv(t)
	const k, textChunks, imageChunks = 3, 7, 4 // fail at text chunk 3 of ceil(800/128), ceil(400/128)
	boom := errors.New("injected failure")

	for name, tc := range map[string]struct {
		arm       func(sopts *StreamOptions, cancel context.CancelFunc)
		want      error
		committed int // text chunks on disk afterwards
	}{
		"commit hook": {func(sopts *StreamOptions, _ context.CancelFunc) {
			sopts.CommitHook = func(op, path string) error {
				if op == "marker" && strings.Contains(path, "text") && strings.Contains(path, "c000003") {
					return boom
				}
				return nil
			}
		}, boom, k},
		"chunk hook": {func(sopts *StreamOptions, _ context.CancelFunc) {
			sopts.ChunkHook = func(stage string, chunk int) error {
				if stage == "ingest:text" && chunk == k {
					return boom
				}
				return nil
			}
		}, boom, k + 1},
		"context": {func(sopts *StreamOptions, cancel context.CancelFunc) {
			sopts.ChunkHook = func(stage string, chunk int) error {
				if stage == "ingest:text" && chunk == k {
					cancel()
				}
				return nil
			}
		}, context.Canceled, k + 1},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sopts := StreamOptions{Dir: dir, ChunkSize: 128}
			tc.arm(&sopts, cancel)
			before := runtime.NumGoroutine()
			_, err := newStreamPipeline(t, opts).CurateStreamed(ctx, w, task, streamDSConfig(), sopts)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// A joined goroutine has called Done but may not have left the
			// scheduler's count yet; one that was never joined stays forever.
			for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
				if wait > time.Second {
					t.Fatalf("%d goroutines after the failed run, %d before it", runtime.NumGoroutine(), before)
				}
				time.Sleep(wait)
			}
			for corpus, want := range map[string]int{"text": tc.committed, "image": 0} {
				st, err := disk.Open(filepath.Join(dir, corpus), lib.Schema(), disk.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := st.Chunks(); got != want {
					t.Errorf("%s store holds %d chunks after failing at text chunk %d, want %d", corpus, got, k, want)
				}
				st.Close()
			}

			var commits int
			resumed := runStreamed(t, opts, StreamOptions{Dir: dir, ChunkSize: 128, Resume: true,
				CommitHook: func(op, path string) error {
					if op == "marker" {
						commits++
					}
					return nil
				}})
			streamedEqual(t, resumed, clean)
			if want := textChunks + imageChunks - tc.committed; commits != want || resumed.ReusedChunks != tc.committed {
				t.Errorf("resume committed %d chunks and reused %d, want %d and %d", commits, resumed.ReusedChunks, want, tc.committed)
			}
		})
	}
}

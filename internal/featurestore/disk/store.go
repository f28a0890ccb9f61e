package disk

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/trace"
)

// Options configures a store.
type Options struct {
	// CommitHook, when set, runs immediately before each atomic rename
	// during AppendChunk: op is "segment" or "marker", path the final
	// destination. Returning an error aborts the append mid-commit — the
	// crash-injection seam the fault-tolerance suite drives.
	CommitHook func(op, path string) error
}

// Store is an append-only collection of committed chunks, one segment each,
// under one directory. Safe for concurrent reads; AppendChunk callers must
// serialize among themselves (the streaming pipeline appends from one
// goroutine).
type Store struct {
	dir        string
	schema     *feature.Schema
	schemaHash uint64
	opts       Options

	enc encoder // AppendChunk's scratch; appends are serialized by the caller
	// lost is set when a chunk committed on disk could not be reopened: the
	// store no longer knows its next sequence number, so it refuses appends
	// until it is opened again.
	lost error

	mu          sync.RWMutex
	chunks      []*Segment // committed chunk seq is chunks[seq]
	rows        int
	quarantined []string
}

// segName returns a chunk's segment filename.
func segName(chunk int) string {
	return fmt.Sprintf("c%06d.seg", chunk)
}

// markerName returns the commit-marker filename for a chunk.
func markerName(chunk int) string {
	return fmt.Sprintf("c%06d.ok", chunk)
}

// Open opens (creating if needed) the store at dir for schema.
//
// Recovery model: a chunk exists iff its commit marker does, and the
// committed prefix is the longest contiguous run of valid chunks from 0.
// Everything else on disk is debris from a crash or corruption — un-marked
// segments (torn writes, a crash between the segment and marker renames),
// zero-length or CRC-failing segments, markers past a gap, files of another
// format — and is quarantined: renamed to "<name>.quarantined" so it can
// never be mistaken for data, while remaining available for inspection. Open never fails because of debris;
// Quarantined reports what was set aside, and appends resume from the
// first uncommitted chunk.
func Open(dir string, schema *feature.Schema, opts Options) (*Store, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("disk: store needs a non-empty schema")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	_, span := trace.Start(context.Background(), "diskstore.open")
	defer span.End()
	s := &Store{dir: dir, schema: schema, schemaHash: SchemaHash(schema), opts: opts}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	markers, segFiles := make(map[int]bool), make(map[int]bool)
	var stray []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		var chunk int
		switch {
		case parseName(name, "c%06d.seg", &chunk):
			segFiles[chunk] = true
		case parseName(name, "c%06d.ok", &chunk):
			markers[chunk] = true
		case filepath.Ext(name) == ".quarantined":
			// Already set aside by a previous recovery.
		default:
			stray = append(stray, name)
		}
	}

	// Walk the contiguous committed prefix, opening and validating each
	// chunk's segment. The first missing marker or invalid segment ends the
	// prefix; the broken chunk and everything after it is debris.
	committed := 0
	for ; markers[committed] && segFiles[committed]; committed++ {
		seg, err := openSegment(filepath.Join(dir, segName(committed)), schema, s.schemaHash)
		if err != nil {
			break
		}
		if seg.chunk != committed {
			seg.Close()
			break
		}
		s.chunks = append(s.chunks, seg)
		s.rows += seg.Rows()
	}

	// Quarantine everything past the committed prefix.
	for chunk := range segFiles {
		if chunk >= committed {
			stray = append(stray, segName(chunk))
		}
	}
	for chunk := range markers {
		if chunk >= committed {
			stray = append(stray, markerName(chunk))
		}
	}
	sort.Strings(stray)
	for _, name := range stray {
		src := filepath.Join(dir, name)
		dst := src + ".quarantined"
		if err := os.Rename(src, dst); err != nil {
			s.Close()
			return nil, fmt.Errorf("disk: quarantine %s: %w", name, err)
		}
		s.quarantined = append(s.quarantined, dst)
	}
	span.SetInt("chunks", int64(committed))
	span.SetInt("rows", int64(s.rows))
	span.SetInt("quarantined", int64(len(s.quarantined)))
	return s, nil
}

// parseName strictly matches name against a zero-padded Sprintf pattern:
// the parsed value must render back to exactly name, so "c1.seg", a
// format-1 "c000001-s002.seg" or trailing garbage never passes as a segment.
func parseName(name, pattern string, out *int) bool {
	n, err := fmt.Sscanf(name, pattern, out)
	return err == nil && n == 1 && fmt.Sprintf(pattern, *out) == name
}

// Schema returns the store's schema.
func (s *Store) Schema() *feature.Schema { return s.schema }

// Chunks returns the number of committed chunks.
func (s *Store) Chunks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// Rows returns the total committed row count.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows
}

// ChunkRows returns committed chunk seq's row count.
func (s *Store) ChunkRows(seq int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.chunks[seq].rows
}

// Quarantined returns the paths of files set aside during Open.
func (s *Store) Quarantined() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.quarantined...)
}

// Close unmaps every open segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.chunks {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.chunks = nil
	s.rows = 0
	return first
}

// AppendChunk writes one chunk of rows as one segment and commits it
// atomically: the segment lands via temp-file + rename, and the chunk's
// commit marker is renamed into place only after it — a crash anywhere
// leaves no committed partial chunk, and Open quarantines the debris.
// Vectors must carry the store's schema; ids, labels, and vecs are
// parallel and their append order is preserved by ScanChunks. None of them is
// retained: the caller may refill them once AppendChunk returns. A chunk that
// commits but whose segment fails to reopen is on disk and not in the store,
// so the store refuses every later append until it is opened again.
func (s *Store) AppendChunk(ctx context.Context, ids []int, labels []int8, vecs []*feature.Vector) error {
	if len(ids) != len(vecs) || len(labels) != len(vecs) {
		return fmt.Errorf("disk: %d ids / %d labels / %d vectors", len(ids), len(labels), len(vecs))
	}
	if len(vecs) == 0 {
		return fmt.Errorf("disk: empty chunk")
	}
	if s.lost != nil {
		return s.lost
	}
	// encodeSegment indexes every vector by the store schema's positions, so
	// every vector is checked: by schema pointer, which the vectors of a
	// featurized corpus share, and by hash only when the pointer changes.
	ok := s.schema
	for r, v := range vecs {
		if sc := v.Schema(); sc != ok {
			if SchemaHash(sc) != s.schemaHash {
				return fmt.Errorf("disk: row %d: vector schema does not match store schema", r)
			}
			ok = sc
		}
	}
	_, span := trace.Start(ctx, "diskstore.append_chunk")
	defer span.End()
	seq := s.Chunks()

	path := filepath.Join(s.dir, segName(seq))
	var size int
	if err := s.atomicWrite(path, "segment", func(f *os.File) (err error) {
		size, err = s.enc.encodeSegment(f, s.schema, s.schemaHash, seq, ids, labels, vecs)
		return err
	}); err != nil {
		return err
	}
	// The marker commits the chunk; its content is irrelevant (rename
	// atomicity is the commit), only its existence matters.
	if err := s.atomicWrite(filepath.Join(s.dir, markerName(seq)), "marker", func(f *os.File) error {
		_, err := f.WriteString("ok\n")
		return err
	}); err != nil {
		return err
	}
	seg, err := openSegment(path, s.schema, s.schemaHash)
	if err != nil {
		s.lost = fmt.Errorf("disk: chunk %d committed but not reopened, reopen the store to append: %w", seq, err)
		return s.lost
	}
	s.mu.Lock()
	s.chunks = append(s.chunks, seg)
	s.rows += seg.Rows()
	s.mu.Unlock()
	span.Add("rows", int64(len(vecs)))
	span.Add("bytes", int64(size))
	return nil
}

// atomicWrite lands what write puts in a temp file at path via rename,
// running the commit hook (fault seam) just before the rename.
func (s *Store) atomicWrite(path, op string, write func(f *os.File) error) (err error) {
	f, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if s.opts.CommitHook != nil {
		if err = s.opts.CommitHook(op, path); err != nil {
			return fmt.Errorf("disk: commit hook (%s %s): %w", op, filepath.Base(path), err)
		}
	}
	return os.Rename(tmp, path)
}

// ScanChunks streams every committed chunk in sequence order, handing fn
// the chunk's rows in their original append order under the store's schema.
// It is ScanProjected with the identity projection.
func (s *Store) ScanChunks(ctx context.Context, fn func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error) error {
	return s.ScanProjected(ctx, s.schema, fn)
}

// ScanProjected scans every committed chunk in sequence order, rows in their
// original append order, decoded straight into target — the schema the
// consumer works in. Target features are matched to stored columns by name
// and must be defined identically (checked before any row is read); features
// the store lacks stay Missing; stored columns target omits are never
// touched. The result is what scanning under the store schema and then
// Reprojecting every vector would give, without building the full-schema
// vector.
//
// A chunk is materialized as a few chunk-level slabs (one []Vector, one
// pointer-free cell slab and one payload of intern IDs and embeddings sized
// before the first row), freshly allocated per chunk and owned by fn:
// retaining any vector keeps its chunk's slabs alive. Memory stays O(chunk),
// never O(store).
func (s *Store) ScanProjected(ctx context.Context, target *feature.Schema, fn func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error) error {
	return s.scan(ctx, target, func(ctx context.Context, seg *Segment, proj *projection) error {
		ids, labels, vecs, err := readChunk(seg, proj)
		if err != nil {
			return err
		}
		trace.Count(ctx, "vectors", int64(len(vecs)))
		return fn(seg.chunk, ids, labels, vecs)
	})
}

// ScanColumns is ScanProjected without the vectors: fn gets each chunk's
// labels in append order and the chunk as consecutive column views of
// feature.ViewRows rows (the last one shorter), straight over the mapped
// bytes and addressed by target's positions, valid until fn returns. Every
// byte a view reads was validated when its segment opened.
func (s *Store) ScanColumns(ctx context.Context, target *feature.Schema, fn func(seq int, labels []int8, parts []feature.Columns) error) error {
	var views []segColumns
	var parts []feature.Columns
	return s.scan(ctx, target, func(_ context.Context, seg *Segment, proj *projection) error {
		n := (seg.rows + feature.ViewRows - 1) / feature.ViewRows
		views, parts = slices.Grow(views[:0], n), slices.Grow(parts[:0], n)
		for lo := 0; lo < seg.rows; lo += feature.ViewRows {
			views = append(views, segColumns{seg, proj.cols, lo, min(feature.ViewRows, seg.rows-lo)})
		}
		for i := range views {
			parts = append(parts, &views[i])
		}
		return fn(seg.chunk, seg.labels(), parts)
	})
}

// scan is the store's one scan loop: fn on every committed chunk in sequence
// order, under a diskstore.scan span (fn's ctx) counting the rows read;
// ScanProjected adds the vectors it decoded.
func (s *Store) scan(ctx context.Context, target *feature.Schema, fn func(ctx context.Context, seg *Segment, proj *projection) error) error {
	proj, err := newProjection(s.schema, target)
	if err != nil {
		return err
	}
	ctx, span := trace.Start(ctx, "diskstore.scan")
	defer span.End()
	for seq, n := 0, s.Chunks(); seq < n; seq++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.RLock()
		seg := s.chunks[seq]
		s.mu.RUnlock()
		span.Add("rows", int64(seg.rows))
		if err := fn(ctx, seg, proj); err != nil {
			return err
		}
	}
	return nil
}

// readChunk materializes one committed chunk, in append order, into fresh
// slabs whose payload is sized for its rows before the first is decoded.
func readChunk(seg *Segment, proj *projection) ([]int, []int8, []*feature.Vector, error) {
	var nCats, nEmbs uint64
	for r := 0; r < seg.rows; r++ {
		c, e := seg.rowPayloadSize(proj, r)
		nCats, nEmbs = nCats+c, nEmbs+e
	}
	if err := checkSlabPayload(seg.path, nCats, nEmbs); err != nil {
		return nil, nil, nil, err
	}
	slab := feature.NewVectors(proj.target, seg.rows)
	slab[0].Grow(int(nCats), int(nEmbs))
	ids := make([]int, seg.rows)
	vecs := make([]*feature.Vector, seg.rows)
	dec := rowDecoder{seg: seg, proj: proj}
	for r := range vecs {
		ids[r], vecs[r] = int(seg.ID(r)), &slab[r]
		if err := dec.row(r, vecs[r]); err != nil {
			return nil, nil, nil, err
		}
	}
	return ids, seg.labels(), vecs, nil
}

// checkSlabPayload reports a payload of cats category ID slots and embs
// floats that one slab's 32-bit windows cannot address as corrupt, before
// anything is sized from it. The counts come from validated segment bytes,
// so only a damaged or hostile store gets here.
func checkSlabPayload(path string, cats, embs uint64) error {
	if max(cats, embs) > min(math.MaxUint32, math.MaxInt) {
		return &ErrCorrupt{Path: path, Detail: fmt.Sprintf("payload of %d categories / %d floats overflows a vector slab", cats, embs)}
	}
	return nil
}

// Find materializes the vectors of the requested point IDs (those present
// in the store). It scans segment ID columns — O(rows) integer reads, no
// index — which is the right trade for the pipeline's only random-access
// consumer, the few thousand sampled propagation seeds. A first pass
// collects the hits and sizes their payload; the second decodes them into
// one NewVectors slab, so the found vectors share it and keeping any one of
// them keeps them all alive.
func (s *Store) Find(ctx context.Context, ids []int) (map[int]*feature.Vector, error) {
	proj, err := newProjection(s.schema, s.schema)
	if err != nil {
		return nil, err
	}
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[uint64(id)] = true
	}
	type hit struct {
		seg *Segment
		r   int
	}
	hits := make([]hit, 0, len(want))
	var nCats, nEmbs uint64
	s.mu.RLock()
	chunks := s.chunks
	s.mu.RUnlock()
	for _, seg := range chunks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for r := 0; r < seg.rows; r++ {
			if want[seg.ID(r)] {
				hits = append(hits, hit{seg, r})
				c, e := seg.rowPayloadSize(proj, r)
				nCats, nEmbs = nCats+c, nEmbs+e
			}
		}
	}
	out := make(map[int]*feature.Vector, len(hits))
	if len(hits) == 0 {
		return out, nil
	}
	if err := checkSlabPayload(hits[0].seg.path, nCats, nEmbs); err != nil {
		return nil, err
	}
	slab := feature.NewVectors(s.schema, len(hits))
	slab[0].Grow(int(nCats), int(nEmbs))
	dec := rowDecoder{proj: proj}
	for i, h := range hits {
		dec.seg = h.seg
		if err := dec.row(h.r, &slab[i]); err != nil {
			return nil, err
		}
		out[int(h.seg.ID(h.r))] = &slab[i]
	}
	return out, nil
}

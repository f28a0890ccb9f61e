package disk

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"crossmodal/internal/feature"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// Options configures a store.
type Options struct {
	// Shards is the shard count rows are hash-routed across (default 8).
	// Segments recorded with a different count are rejected as corrupt.
	Shards int
	// CommitHook, when set, runs immediately before each atomic rename
	// during AppendChunk: op is "segment" or "marker", path the final
	// destination. Returning an error aborts the append mid-commit — the
	// crash-injection seam the fault-tolerance suite drives.
	CommitHook func(op, path string) error
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	return o
}

// chunkSet is one committed chunk's open segments (only shards that
// received rows have one), ascending by shard.
type chunkSet struct {
	seq  int
	segs []*Segment
	rows int
}

// Store is an append-only, chunk-committed collection of shard segments
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
	chunks      []*chunkSet
	rows        int
	quarantined []string
}

// segName returns the segment filename for (chunk, shard).
func segName(chunk, shard int) string {
	return fmt.Sprintf("c%06d-s%03d.seg", chunk, shard)
}

// markerName returns the commit-marker filename for a chunk.
func markerName(chunk int) string {
	return fmt.Sprintf("c%06d.ok", chunk)
}

// shardOf routes a point ID to its shard by entity hash.
func shardOf(id uint64, shards int) int {
	return int(xrand.Mix(id) % uint64(shards))
}

// Open opens (creating if needed) the store at dir for schema.
//
// Recovery model: a chunk exists iff its commit marker does, and the
// committed prefix is the longest contiguous run of valid chunks from 0.
// Everything else on disk is debris from a crash or corruption — un-marked
// segments (torn writes, partial multi-shard renames), zero-length or
// CRC-failing segments, markers past a gap — and is quarantined: renamed
// to "<name>.quarantined" so it can never be mistaken for data, while
// remaining available for inspection. Open never fails because of debris;
// Quarantined reports what was set aside, and appends resume from the
// first uncommitted chunk.
func Open(dir string, schema *feature.Schema, opts Options) (*Store, error) {
	opts = opts.withDefaults()
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
	markers := make(map[int]bool)
	segFiles := make(map[int][]string) // chunk -> segment filenames
	var stray []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		var chunk, shard int
		switch {
		case parseName(name, "c%06d-s%03d.seg", &chunk, &shard):
			segFiles[chunk] = append(segFiles[chunk], name)
		case parseName(name, "c%06d.ok", &chunk):
			markers[chunk] = true
		case filepath.Ext(name) == ".quarantined":
			// Already set aside by a previous recovery.
		default:
			stray = append(stray, name)
		}
	}

	// Walk the contiguous committed prefix, opening and validating each
	// chunk's segments. The first missing marker or invalid segment ends
	// the prefix; the broken chunk and everything after it is debris.
	committed := 0
	for markers[committed] {
		names := segFiles[committed]
		sort.Strings(names)
		cs := &chunkSet{seq: committed}
		ok := len(names) > 0
		for _, name := range names {
			seg, err := openSegment(filepath.Join(dir, name), schema, s.schemaHash)
			if err != nil {
				ok = false
				break
			}
			if seg.Chunk() != committed || seg.Shard() >= opts.Shards || segName(seg.Chunk(), seg.Shard()) != name {
				seg.Close()
				ok = false
				break
			}
			cs.segs = append(cs.segs, seg)
			cs.rows += seg.Rows()
		}
		if !ok {
			for _, seg := range cs.segs {
				seg.Close()
			}
			break
		}
		s.chunks = append(s.chunks, cs)
		s.rows += cs.rows
		committed++
	}

	// Quarantine everything past the committed prefix.
	for chunk, names := range segFiles {
		if chunk >= committed {
			stray = append(stray, names...)
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
// the parsed values must render back to exactly name, so "c1-s2.seg" or
// trailing garbage never passes as a segment.
func parseName(name, pattern string, out ...*int) bool {
	args := make([]any, len(out))
	for i := range out {
		args[i] = out[i]
	}
	n, err := fmt.Sscanf(name, pattern, args...)
	if err != nil || n != len(out) {
		return false
	}
	vals := make([]any, len(out))
	for i := range out {
		vals[i] = *out[i]
	}
	return fmt.Sprintf(pattern, vals...) == name
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
	for _, cs := range s.chunks {
		for _, seg := range cs.segs {
			if err := seg.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.chunks = nil
	s.rows = 0
	return first
}

// AppendChunk routes one chunk of rows to shard segments and commits them
// atomically: each segment lands via temp-file + rename, and the chunk's
// commit marker is renamed into place only after every segment — a crash
// anywhere leaves no committed partial chunk, and Open quarantines the
// debris. Vectors must carry the store's schema; ids, labels, and vecs are
// parallel and their append order is preserved by ScanChunks. None of them is
// retained: the caller may refill them once AppendChunk returns. A chunk that
// commits but whose segments fail to reopen is on disk and not in the store,
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

	parts := s.enc.partition(s.opts.Shards, ids, labels, vecs)
	defer s.enc.release()

	var bytesOut int
	written := make([]string, 0, s.opts.Shards)
	for sh := range parts {
		p := &parts[sh]
		if len(p.vecs) == 0 {
			continue
		}
		data, err := s.enc.encodeSegment(s.schema, s.schemaHash, sh, s.opts.Shards, seq, p.ids, p.ords, p.labels, p.vecs)
		if err != nil {
			return err
		}
		final := filepath.Join(s.dir, segName(seq, sh))
		if err := s.atomicWrite(final, data, "segment"); err != nil {
			return err
		}
		written = append(written, final)
		bytesOut += len(data)
	}
	// The marker commits the whole chunk; its content is irrelevant
	// (rename atomicity is the commit), only its existence matters.
	marker := filepath.Join(s.dir, markerName(seq))
	if err := s.atomicWrite(marker, []byte("ok\n"), "marker"); err != nil {
		return err
	}

	cs := &chunkSet{seq: seq}
	for _, path := range written {
		seg, err := openSegment(path, s.schema, s.schemaHash)
		if err != nil {
			for _, open := range cs.segs {
				open.Close()
			}
			s.lost = fmt.Errorf("disk: chunk %d committed but not reopened, reopen the store to append: %w", seq, err)
			return s.lost
		}
		cs.segs = append(cs.segs, seg)
		cs.rows += seg.Rows()
	}
	s.mu.Lock()
	s.chunks = append(s.chunks, cs)
	s.rows += cs.rows
	s.mu.Unlock()
	span.Add("rows", int64(len(vecs)))
	span.Add("bytes", int64(bytesOut))
	return nil
}

// atomicWrite lands data at path via temp file + rename, running the
// commit hook (fault seam) just before the rename.
func (s *Store) atomicWrite(path string, data []byte, op string) (err error) {
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
	if _, err = f.Write(data); err != nil {
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
// pointer-free cell slab and one payload of category strings, intern IDs and
// embeddings sized before the first row), freshly allocated per chunk and
// owned by fn: retaining any vector keeps its chunk's slabs alive. Memory
// stays O(chunk), never O(store).
func (s *Store) ScanProjected(ctx context.Context, target *feature.Schema, fn func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error) error {
	return s.scan(ctx, target, func(ctx context.Context, cs *chunkSet, proj *projection) error {
		ids, labels, vecs, err := s.readChunk(cs, proj)
		if err != nil {
			return err
		}
		trace.Count(ctx, "vectors", int64(len(vecs)))
		return fn(cs.seq, ids, labels, vecs)
	})
}

// ScanColumns is ScanProjected without the vectors: fn gets each chunk's
// labels in append order and one column view per segment, straight over the
// mapped bytes and addressed by target's positions, valid until fn returns.
// Ordinals are validated per chunk as readChunk does; everything else a view
// reads was validated when its segment opened.
func (s *Store) ScanColumns(ctx context.Context, target *feature.Schema, fn func(seq int, labels []int8, parts []feature.Columns) error) error {
	var views []segColumns
	var parts []feature.Columns
	return s.scan(ctx, target, func(_ context.Context, cs *chunkSet, proj *projection) error {
		labels, err := cs.order()
		if err != nil {
			return err
		}
		views, parts = views[:0], parts[:0]
		for _, seg := range cs.segs {
			views = append(views, segColumns{seg, proj.cols})
		}
		for i := range views {
			parts = append(parts, &views[i])
		}
		return fn(cs.seq, labels, parts)
	})
}

// scan is the store's one scan loop: fn on every committed chunk in sequence
// order, under a diskstore.scan span (fn's ctx) counting the rows and
// segments read; ScanProjected adds the vectors it decoded.
func (s *Store) scan(ctx context.Context, target *feature.Schema, fn func(ctx context.Context, cs *chunkSet, proj *projection) error) error {
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
		cs := s.chunks[seq]
		s.mu.RUnlock()
		span.Add("rows", int64(cs.rows))
		span.Add("segments", int64(len(cs.segs)))
		if err := fn(ctx, cs, proj); err != nil {
			return err
		}
	}
	return nil
}

// order validates the chunk's row ordinals for every reader — each in range
// and none repeated, so the segments' rows are exactly the chunk's rows — and
// gathers the label column in append order.
func (cs *chunkSet) order() ([]int8, error) {
	labels := make([]int8, cs.rows)
	seen := make([]bool, cs.rows)
	for _, seg := range cs.segs {
		for r := 0; r < seg.Rows(); r++ {
			ord := seg.Ord(r)
			if ord < 0 || ord >= cs.rows || seen[ord] {
				return nil, &ErrCorrupt{Path: seg.Path(), Detail: fmt.Sprintf("row ordinal %d invalid for chunk of %d rows", ord, cs.rows)}
			}
			seen[ord], labels[ord] = true, seg.Label(r)
		}
	}
	return labels, nil
}

// readChunk materializes one committed chunk in append order.
func (s *Store) readChunk(cs *chunkSet, proj *projection) ([]int, []int8, []*feature.Vector, error) {
	var nCats, nEmbs uint64
	for _, seg := range cs.segs {
		c, e := seg.payloadSize(proj)
		nCats, nEmbs = nCats+c, nEmbs+e
	}
	if max(nCats, nEmbs) > min(math.MaxUint32, math.MaxInt) {
		return nil, nil, nil, &ErrCorrupt{Path: cs.segs[0].Path(), Detail: fmt.Sprintf("chunk payload of %d categories / %d floats overflows a vector slab", nCats, nEmbs)}
	}
	labels, err := cs.order()
	if err != nil {
		return nil, nil, nil, err
	}
	ids := make([]int, cs.rows)
	slab := feature.NewVectors(proj.target, cs.rows)
	slab[0].Grow(int(nCats), int(nEmbs))
	vecs := make([]*feature.Vector, cs.rows)
	dec := rowDecoder{proj: proj}
	for _, seg := range cs.segs {
		dec.seg = seg // the scratch buffers carry over
		for r := 0; r < seg.Rows(); r++ {
			ord := seg.Ord(r)
			ids[ord] = int(seg.ID(r))
			vecs[ord] = &slab[ord]
			if err := dec.row(r, vecs[ord]); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return ids, labels, vecs, nil
}

// Find materializes the vectors of the requested point IDs (those present
// in the store). It scans segment ID columns — O(rows) integer reads, no
// index — which is the right trade for the pipeline's only random-access
// consumer, the few thousand sampled propagation seeds.
func (s *Store) Find(ctx context.Context, ids []int) (map[int]*feature.Vector, error) {
	proj, err := newProjection(s.schema, s.schema)
	if err != nil {
		return nil, err
	}
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[uint64(id)] = true
	}
	out := make(map[int]*feature.Vector, len(ids))
	s.mu.RLock()
	chunks := s.chunks
	s.mu.RUnlock()
	for _, cs := range chunks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := cs.order(); err != nil {
			return nil, err
		}
		for _, seg := range cs.segs {
			dec := rowDecoder{seg: seg, proj: proj}
			for r := 0; r < seg.Rows(); r++ {
				if id := seg.ID(r); want[id] {
					v := feature.NewVector(s.schema)
					if err := dec.row(r, v); err != nil {
						return nil, err
					}
					out[int(id)] = v
				}
			}
		}
	}
	return out, nil
}

// Segments returns the open segments of committed chunk seq (ascending
// shard order). Exposed for the zero-alloc read-path tests and benchmarks.
func (s *Store) Segments(seq int) []*Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.chunks[seq].segs
}

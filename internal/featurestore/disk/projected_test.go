package disk

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

// randomChunk builds n vectors under testSchema with every shape the
// decoder distinguishes: missing values, present-but-empty category sets,
// duplicate categories, odd float bits. Features named in allMissing are
// missing on every row, so their columns hold an all-zero presence bitmap
// (and, for categoricals, an empty dictionary).
func randomChunk(rng *rand.Rand, schema *feature.Schema, n int, allMissing map[string]bool) []*feature.Vector {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64}
	vecs := make([]*feature.Vector, n)
	for r := range vecs {
		v := feature.NewVector(schema)
		for i := 0; i < schema.Len(); i++ {
			d := schema.Def(i)
			if allMissing[d.Name] || rng.Intn(4) == 0 {
				continue
			}
			switch d.Kind {
			case feature.Numeric:
				x := rng.NormFloat64()
				if rng.Intn(3) == 0 {
					x = floats[rng.Intn(len(floats))]
				}
				v.MustSet(d.Name, feature.NumericValue(x))
			case feature.Embedding:
				emb := make([]float64, d.Dim)
				for k := range emb {
					emb[k] = rng.Float64()*2 - 1
				}
				v.MustSet(d.Name, feature.EmbeddingValue(emb))
			case feature.Categorical:
				cats := make([]string, rng.Intn(5)) // 0: present but empty
				for k := range cats {
					cats[k] = fmt.Sprintf("%s-%d", d.Name, rng.Intn(6)) // small pool: duplicates are common
				}
				if len(cats) == 0 {
					cats = nil
				}
				v.MustSet(d.Name, feature.CategoricalValue(cats...))
			}
		}
		vecs[r] = v
	}
	return vecs
}

// wantIdentical asserts got is the vector want in every observable respect:
// Equal (schema, presence, float bits, categories in order), the per-field
// report of wantSameVector, and the intern-ID sets the decoder mapped from
// the segment dictionary rather than looked up.
func wantIdentical(t *testing.T, where string, want, got *feature.Vector) {
	t.Helper()
	wantSameVector(t, where, want, got)
	if !want.Equal(got) {
		t.Fatalf("%s: decoded %v, want %v", where, got, want)
	}
	for i := 0; i < want.Schema().Len(); i++ {
		if a, b := want.CategoryIDs(i), got.CategoryIDs(i); !slices.Equal(a, b) {
			t.Fatalf("%s: feature %d: intern IDs %v, want %v", where, i, b, a)
		}
	}
}

// TestScanProjectedMatchesReproject: decoding a chunk straight into a
// consumer's schema yields, row for row, the vector that was written
// reprojected onto that schema — and the vector ScanChunks + Reproject
// yields — for the identity, a reordered subset, and a target naming
// features the store lacks. A target that defines a stored feature
// differently is refused before any row is read.
func TestScanProjectedMatchesReproject(t *testing.T) {
	ctx := context.Background()
	schema := testSchema()
	s, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	rng := xrand.New(101)
	var written [][]*feature.Vector
	base := 0
	for c, allMissing := range []map[string]bool{
		nil,
		{"tags": true},
		{"score": true, "emb": true},
		{"score": true, "emb": true, "topic": true, "tags": true},
		nil,
	} {
		n := []int{97, 1, 40, 5, 260}[c]
		vecs := randomChunk(rng, schema, n, allMissing)
		ids := make([]int, n)
		labels := make([]int8, n)
		for i := range ids {
			ids[i] = base + i
			labels[i] = int8(rng.Intn(3) - 1)
		}
		base += n
		if err := s.AppendChunk(ctx, ids, labels, vecs); err != nil {
			t.Fatalf("AppendChunk: %v", err)
		}
		written = append(written, vecs)
	}

	def := func(name string) feature.Def { return schema.Def(schemaIndex(t, schema, name)) }
	targets := map[string]*feature.Schema{
		"identity":  schema,
		"reordered": feature.MustSchema(def("tags"), def("score")),
		"lacking": feature.MustSchema(
			def("emb"),
			feature.Def{Name: "absent", Kind: feature.Categorical, Set: "Z"},
			def("topic"),
			feature.Def{Name: "absent_emb", Kind: feature.Embedding, Dim: 3},
			def("score"),
		),
	}
	for name, target := range targets {
		var viaChunks [][]*feature.Vector
		if err := s.ScanChunks(ctx, func(_ int, _ []int, _ []int8, vecs []*feature.Vector) error {
			out := make([]*feature.Vector, len(vecs))
			for i, v := range vecs {
				out[i] = v.Reproject(target)
			}
			viaChunks = append(viaChunks, out)
			return nil
		}); err != nil {
			t.Fatalf("%s: ScanChunks: %v", name, err)
		}
		chunks := 0
		err := s.ScanProjected(ctx, target, func(seq int, ids []int, _ []int8, vecs []*feature.Vector) error {
			if len(vecs) != len(written[seq]) || len(ids) != len(vecs) {
				t.Fatalf("%s: chunk %d has %d rows, wrote %d", name, seq, len(vecs), len(written[seq]))
			}
			for r, v := range vecs {
				where := fmt.Sprintf("%s chunk %d row %d", name, seq, r)
				if v.Schema() != target {
					t.Fatalf("%s: vector carries schema %v, want the target", where, v.Schema())
				}
				wantIdentical(t, where+" vs written", written[seq][r].Reproject(target), v)
				wantIdentical(t, where+" vs ScanChunks+Reproject", viaChunks[seq][r], v)
			}
			chunks++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: ScanProjected: %v", name, err)
		}
		if chunks != len(written) {
			t.Fatalf("%s: scanned %d chunks, want %d", name, chunks, len(written))
		}
	}

	// Decoded values never alias one another: appending to one row's
	// categories must not reach the next row's.
	if err := s.ScanChunks(ctx, func(_ int, _ []int, _ []int8, vecs []*feature.Vector) error {
		for _, v := range vecs {
			for i := 0; i < schema.Len(); i++ {
				val := v.At(i)
				if cap(val.Categories) != len(val.Categories) || cap(val.Vec) != len(val.Vec) {
					t.Fatalf("decoded value has spare capacity into its arena: %d/%d categories, %d/%d floats",
						len(val.Categories), cap(val.Categories), len(val.Vec), cap(val.Vec))
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for name, bad := range map[string]feature.Def{
		"kind":     {Name: "score", Kind: feature.Categorical, Set: "A", Servable: true},
		"dim":      {Name: "emb", Kind: feature.Embedding, Dim: 5, Set: "B"},
		"set":      {Name: "topic", Kind: feature.Categorical, Set: "B", Servable: true},
		"servable": {Name: "tags", Kind: feature.Categorical, Set: "C", Servable: true},
	} {
		called := false
		// A good feature first: the mismatch must be found wherever it sits.
		target := feature.MustSchema(feature.Def{Name: "absent", Kind: feature.Numeric}, bad)
		err := s.ScanProjected(ctx, target, func(int, []int, []int8, []*feature.Vector) error {
			called = true
			return nil
		})
		if err == nil || called {
			t.Fatalf("mismatched %s: err = %v, rows read = %v; want an error before any row", name, err, called)
		}
	}
}

// scannedRow is one row of a scan: its chunk, point ID, label and vector.
type scannedRow struct {
	seq, id int
	label   int8
	vec     *feature.Vector
}

// scanRows collects one ScanProjected pass of s under target.
func scanRows(t *testing.T, s *Store, target *feature.Schema) []scannedRow {
	t.Helper()
	var rows []scannedRow
	if err := s.ScanProjected(context.Background(), target, func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error {
		for r, v := range vecs {
			rows = append(rows, scannedRow{seq, ids[r], labels[r], v})
		}
		return nil
	}); err != nil {
		t.Fatalf("ScanProjected: %v", err)
	}
	return rows
}

// TestScanAllocsPerChunk: a scan allocates per chunk (the slabs and arenas),
// never per row — two stores with the same chunk count but 16x the rows cost
// the same number of allocations; Find decodes 512 hits with the allocations
// of 32.
func TestScanAllocsPerChunk(t *testing.T) {
	// A GC cycle mid-run adds stray mallocs of its own; counts must be exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	schema := testSchema()
	lf := feature.MustSchema(schema.Def(schemaIndex(t, schema, "topic")), schema.Def(schemaIndex(t, schema, "emb")))
	type counts struct{ identity, projected float64 }
	allocs := func(rowsPerChunk int) (c counts) {
		s, err := Open(t.TempDir(), schema, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		for c := 0; c < 2; c++ {
			appendTestChunk(t, s, c*rowsPerChunk, rowsPerChunk, int64(31+c))
		}
		rows := 0
		count := func(_ int, _ []int, _ []int8, vecs []*feature.Vector) error {
			rows += len(vecs)
			return nil
		}
		c.identity = testing.AllocsPerRun(5, func() {
			if err := s.ScanChunks(ctx, count); err != nil {
				t.Fatal(err)
			}
		})
		c.projected = testing.AllocsPerRun(5, func() {
			if err := s.ScanProjected(ctx, lf, count); err != nil {
				t.Fatal(err)
			}
		})
		if rows != 12*2*rowsPerChunk {
			t.Fatalf("scans saw %d rows, want %d", rows, 12*2*rowsPerChunk)
		}
		return c
	}
	small, large := allocs(128), allocs(2048)
	if small.identity != large.identity || small.projected != large.projected {
		t.Fatalf("allocations grew with rows per chunk: identity %v -> %v, projected %v -> %v",
			small.identity, large.identity, small.projected, large.projected)
	}
	// 2 chunks x (6 slabs + 3 payload arrays + the decoder's scratch, grown a
	// few times) plus the projection and span: 36 when written, against the 44
	// of the per-segment arenas this replaced. Nowhere near rows.
	if large.identity > 44 {
		t.Fatalf("a scan of 2 chunks allocated %v times", large.identity)
	}

	s, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids, _, _ := appendTestChunk(t, s, 0, 600, 7)
	find := func(hits int) float64 {
		return testing.AllocsPerRun(5, func() {
			found, err := s.Find(ctx, ids[:hits])
			if err != nil || len(found) != hits {
				t.Fatalf("Find: %d of %d hits, err %v", len(found), hits, err)
			}
		})
	}
	if few, many := find(32), find(512); few != many {
		t.Fatalf("Find allocated %v times for 32 hits, %v for 512: it must not allocate per hit", few, many)
	}
}

// TestEncodeSegmentBytesPinned pins the on-disk bytes of two fixed chunks:
// format version 2, file names, column order, dictionary first-appearance
// order and both CRCs. A change here is a format change and needs a version
// bump, not a new digest.
func TestEncodeSegmentBytesPinned(t *testing.T) {
	const want = "32d4fdc06f79e4543d2e736da611b04a4b82e13c2dd7637340ed3d9eacc4d7d9"
	dir := t.TempDir()
	s, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendTestChunk(t, s, 5000, 257, 19)
	appendTestChunk(t, s, 9000, 3, 23)
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(name)))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("segment bytes changed: sha256 %s, pinned %s", got, want)
	}
}

// TestEmptyCategoricalRoundTrip: a categorical that is present with no
// categories is not a missing one, at every step from SetAt through the
// segment bytes and back, on the slab and the single-row decode alike.
func TestEmptyCategoricalRoundTrip(t *testing.T) {
	ctx := context.Background()
	schema := testSchema()
	s, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	topic, tags := schemaIndex(t, schema, "topic"), schemaIndex(t, schema, "tags")
	vecs := make([]*feature.Vector, 6)
	for r := range vecs {
		vecs[r] = feature.NewVector(schema)
		vecs[r].MustSetAt(topic, feature.CategoricalValue()) // present, empty
		if r%2 == 0 {
			vecs[r].MustSetAt(tags, feature.CategoricalValue("t"))
		}
		if got := vecs[r].At(topic); got.Missing || len(got.Categories) != 0 || !vecs[r].Present(topic) {
			t.Fatalf("row %d: SetAt stored an empty set as %+v", r, got)
		}
	}
	ids := []int{10, 11, 12, 13, 14, 15}
	if err := s.AppendChunk(ctx, ids, make([]int8, len(ids)), vecs); err != nil {
		t.Fatalf("AppendChunk: %v", err)
	}
	check := func(where string, r int, v *feature.Vector) {
		t.Helper()
		if !v.Present(topic) || v.At(topic).Missing || v.CategoryNames(topic) != nil {
			t.Fatalf("%s row %d: empty topic decoded as %+v", where, r, v.At(topic))
		}
		if v.Present(tags) != (r%2 == 0) {
			t.Fatalf("%s row %d: tags present = %v", where, r, v.Present(tags))
		}
		wantIdentical(t, fmt.Sprintf("%s row %d", where, r), vecs[r], v)
	}
	if err := s.ScanChunks(ctx, func(_ int, _ []int, _ []int8, got []*feature.Vector) error {
		for r, v := range got {
			check("scan", r, v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	found, err := s.Find(ctx, ids)
	if err != nil || len(found) != len(ids) {
		t.Fatalf("Find: %d vectors, err %v", len(found), err)
	}
	for r, id := range ids {
		check("find", r, found[id])
	}
}

// TestReadChunkPayloadOverflow: a chunk whose validated per-column counts
// add up past what a slab's 32-bit payload windows address is reported as
// corrupt before anything is allocated from those counts — never wrapped —
// by the whole-chunk decode and Find alike.
func TestReadChunkPayloadOverflow(t *testing.T) {
	ctx := context.Background()
	// One one-row segment, point ID 0, whose seventeen categorical columns
	// share one offsets array ending at maxCatIDs, the most payloadLayout
	// admits per column: any sixteen of them overflow uint32.
	le := binary.LittleEndian
	defs := make([]feature.Def, 17)
	cols := make([]colMeta, len(defs))
	for i := range defs {
		defs[i] = feature.Def{Name: fmt.Sprintf("topic%d", i), Kind: feature.Categorical}
		cols[i] = colMeta{kind: feature.Categorical, data: 9}
	}
	schema := feature.MustSchema(defs...)
	payload := append(le.AppendUint64(nil, 0), 0)                     // ID, label
	payload = le.AppendUint32(le.AppendUint32(payload, 0), maxCatIDs) // offsets
	seg := &Segment{path: "huge.seg", rows: 1, payload: payload, cols: cols}
	s := &Store{schema: schema, chunks: []*Segment{seg}, rows: 1}
	ids := []int{0}
	called := false
	fn := func(int, []int, []int8, []*feature.Vector) error { called = true; return nil }
	var ce *ErrCorrupt
	for name, read := range map[string]func() error{
		"ScanProjected": func() error { return s.ScanProjected(ctx, schema, fn) },
		"Find":          func() error { _, err := s.Find(ctx, ids); return err },
	} {
		if err := read(); !errors.As(err, &ce) || !strings.Contains(ce.Detail, "overflows a vector slab") {
			t.Errorf("%s of an overflowing chunk: err = %v, want the slab overflow *ErrCorrupt", name, err)
		}
	}
	if called {
		t.Fatal("a slab was sized from overflowing counts: fn called")
	}
}

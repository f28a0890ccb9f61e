package disk

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"crossmodal/internal/feature"
)

// appendTestChunk appends one deterministic chunk of n rows starting at
// point ID base and returns what was written.
func appendTestChunk(t *testing.T, s *Store, base, n int, seed int64) ([]int, []int8, []*feature.Vector) {
	t.Helper()
	vecs := makeVecs(t, s.Schema(), n, seed)
	ids := make([]int, n)
	labels := make([]int8, n)
	for i := range ids {
		ids[i] = base + i
		labels[i] = int8(i%3 - 1)
	}
	if err := s.AppendChunk(context.Background(), ids, labels, vecs); err != nil {
		t.Fatalf("AppendChunk: %v", err)
	}
	return ids, labels, vecs
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	s, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	type written struct {
		ids    []int
		labels []int8
		vecs   []*feature.Vector
	}
	var want []written
	for c := 0; c < 3; c++ {
		ids, labels, vecs := appendTestChunk(t, s, 10000*c, 57+13*c, int64(c))
		want = append(want, written{ids, labels, vecs})
	}
	if got := s.Chunks(); got != 3 {
		t.Fatalf("Chunks() = %d, want 3", got)
	}
	if got, wantRows := s.Rows(), 57+70+83; got != wantRows {
		t.Fatalf("Rows() = %d, want %d", got, wantRows)
	}

	verify := func(s *Store, where string) {
		t.Helper()
		seen := 0
		err := s.ScanChunks(context.Background(), func(seq int, ids []int, labels []int8, vecs []*feature.Vector) error {
			w := want[seq]
			if len(ids) != len(w.ids) {
				t.Fatalf("%s: chunk %d has %d rows, want %d", where, seq, len(ids), len(w.ids))
			}
			for r := range ids {
				if ids[r] != w.ids[r] || labels[r] != w.labels[r] {
					t.Fatalf("%s: chunk %d row %d: id/label %d/%d, want %d/%d",
						where, seq, r, ids[r], labels[r], w.ids[r], w.labels[r])
				}
				wantSameVector(t, where, w.vecs[r], vecs[r])
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: ScanChunks: %v", where, err)
		}
		if seen != 3 {
			t.Fatalf("%s: scanned %d chunks, want 3", where, seen)
		}
	}
	verify(s, "fresh store")

	// Reopen from disk (full CRC verification) and verify bit-identity again.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if q := s2.Quarantined(); len(q) != 0 {
		t.Fatalf("clean reopen quarantined %v", q)
	}
	verify(s2, "reopened store")

	// Find returns the exact stored vectors for scattered IDs.
	wantIDs := []int{10000, 10069, 20082, 3, 56, 999999}
	got, err := s2.Find(context.Background(), wantIDs)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("Find returned %d vectors, want 5 (999999 absent)", len(got))
	}
	wantSameVector(t, "Find", want[1].vecs[0], got[10000])
	wantSameVector(t, "Find", want[1].vecs[69], got[10069])
	wantSameVector(t, "Find", want[2].vecs[82], got[20082])
}

// TestOneSegmentPerChunk: every committed chunk is exactly one segment file
// and one commit marker, named for its sequence number, whatever its size.
func TestOneSegmentPerChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	sizes := []int{1, 200, 1100}
	for c, n := range sizes {
		appendTestChunk(t, s, 10000*c, n, int64(c))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	var want []string
	for c, n := range sizes {
		want = append(want, segName(c), markerName(c))
		if got := s.ChunkRows(c); got != n {
			t.Errorf("chunk %d holds %d rows, appended %d", c, got, n)
		}
	}
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Fatalf("store files %v, want %v", names, want)
	}
}

func TestStoreRejectsBadAppends(t *testing.T) {
	s, err := Open(t.TempDir(), testSchema(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.AppendChunk(ctx, nil, nil, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if err := s.AppendChunk(ctx, []int{1, 2}, []int8{0}, makeVecs(t, s.Schema(), 2, 1)); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
	other := feature.MustSchema(feature.Def{Name: "x", Kind: feature.Numeric})
	v := feature.NewVector(other)
	v.MustSet("x", feature.NumericValue(1))
	if err := s.AppendChunk(ctx, []int{1}, []int8{0}, []*feature.Vector{v}); err == nil {
		t.Fatal("foreign-schema vector accepted")
	}

	// Every vector is checked, not the first: a chunk whose third vector
	// carries a narrower schema (its positions are not the store's) fails,
	// names the row, and writes no segment file; an equal schema under
	// another pointer is fine.
	dir := t.TempDir()
	var writes int
	s2, err := Open(dir, testSchema(), Options{CommitHook: func(op, path string) error { writes++; return nil }})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s2.Close()
	vecs := makeVecs(t, s2.Schema(), 4, 2)
	vecs[2] = vecs[2].Reproject(s2.Schema().Sets("A"))
	err = s2.AppendChunk(ctx, []int{1, 2, 3, 4}, []int8{0, 0, 0, 0}, vecs)
	if err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("narrower schema on the third vector: err = %v, want a schema error naming row 2", err)
	}
	files, globErr := filepath.Glob(filepath.Join(dir, "*"))
	if globErr != nil || len(files) != 0 || writes != 0 || s2.Chunks() != 0 {
		t.Fatalf("rejected chunk left %v (%d writes, %d chunks, %v), want nothing on disk", files, writes, s2.Chunks(), globErr)
	}
	twin := makeVecs(t, testSchema(), 4, 2) // equal schema, different object
	if err := s2.AppendChunk(ctx, []int{1, 2, 3, 4}, []int8{0, 0, 0, 0}, twin); err != nil {
		t.Fatalf("equal schema under another pointer rejected: %v", err)
	}
}

func TestStoreSchemaMismatchOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendTestChunk(t, s, 0, 20, 1)
	s.Close()

	other := feature.MustSchema(
		feature.Def{Name: "score", Kind: feature.Numeric, Set: "A"}, // Servable differs
		feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 4, Set: "B"},
		feature.Def{Name: "topic", Kind: feature.Categorical, Set: "A", Servable: true},
		feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C"},
	)
	s2, err := Open(dir, other, Options{})
	if err != nil {
		t.Fatalf("Open under changed schema: %v", err)
	}
	defer s2.Close()
	// Segments written under the old schema hash cannot be committed data
	// for the new schema; they must be quarantined, not mis-decoded.
	if s2.Chunks() != 0 {
		t.Fatalf("store decoded %d chunks under a different schema", s2.Chunks())
	}
	if len(s2.Quarantined()) == 0 {
		t.Fatal("schema-mismatched segments were not quarantined")
	}
}

func TestSegmentAccessors(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	data := encodeTestSegment(t, schema, 64, 9)
	path := filepath.Join(dir, segName(0))
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path, schema, SchemaHash(schema))
	if err != nil {
		t.Fatalf("openSegment: %v", err)
	}
	defer seg.Close()
	vecs := makeVecs(t, schema, 64, 9)
	embCol := schemaIndex(t, schema, "emb")
	topicCol := schemaIndex(t, schema, "topic")
	view := wholeSegment(t, seg, schema)
	for r := 0; r < seg.Rows(); r++ {
		if seg.ID(r) != uint64(1000+r) || seg.Label(r) != int8(r%3-1) {
			t.Fatalf("row %d: id/label = %d/%d", r, seg.ID(r), seg.Label(r))
		}
		want := vecs[r]
		if tv := want.Get("topic"); !tv.Missing {
			ids := view.CatIDs(topicCol, r, nil)
			if len(ids) != len(tv.Categories) {
				t.Fatalf("row %d: %d topic categories, want %d", r, len(ids), len(tv.Categories))
			}
			for k, id := range ids {
				if got := feature.InternedCategory(id); got != tv.Categories[k] {
					t.Fatalf("row %d topic[%d] = %q, want %q", r, k, got, tv.Categories[k])
				}
			}
		}
		if ev := want.Get("emb"); !ev.Missing {
			buf := seg.EmbeddingInto(embCol, r, nil)
			for k := range ev.Vec {
				if math.Float64bits(buf[k]) != math.Float64bits(ev.Vec[k]) {
					t.Fatalf("row %d emb[%d] = %v, want %v", r, k, buf[k], ev.Vec[k])
				}
			}
		}
	}
	// Dictionary is segment-local, deduplicated, first-appearance ordered.
	// Opening interns it once: the names live on only as intern IDs.
	dictIDs := seg.cols[topicCol].dictIDs
	if len(dictIDs) == 0 {
		t.Fatal("topic dictionary is empty")
	}
	seen := map[uint32]bool{}
	for _, id := range dictIDs {
		cat := feature.InternedCategory(id)
		if seen[id] {
			t.Fatalf("dictionary has duplicate %q", cat)
		}
		seen[id] = true
		if !strings.HasPrefix(cat, "t") {
			t.Fatalf("unexpected dictionary entry %q", cat)
		}
	}
}

// wholeSegment is the column view of every row of seg under its own schema.
func wholeSegment(t *testing.T, seg *Segment, schema *feature.Schema) *segColumns {
	t.Helper()
	proj, err := newProjection(schema, schema)
	if err != nil {
		t.Fatal(err)
	}
	return &segColumns{seg: seg, cols: proj.cols, rows: seg.Rows()}
}

func TestSchemaHashSensitivity(t *testing.T) {
	base := testSchema()
	h := SchemaHash(base)
	variants := []*feature.Schema{
		feature.MustSchema( // renamed feature
			feature.Def{Name: "score2", Kind: feature.Numeric, Set: "A", Servable: true},
			feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 4, Set: "B"},
			feature.Def{Name: "topic", Kind: feature.Categorical, Set: "A", Servable: true},
			feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C"},
		),
		feature.MustSchema( // changed dim
			feature.Def{Name: "score", Kind: feature.Numeric, Set: "A", Servable: true},
			feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 8, Set: "B"},
			feature.Def{Name: "topic", Kind: feature.Categorical, Set: "A", Servable: true},
			feature.Def{Name: "tags", Kind: feature.Categorical, Set: "C"},
		),
		feature.MustSchema( // dropped feature
			feature.Def{Name: "score", Kind: feature.Numeric, Set: "A", Servable: true},
			feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 4, Set: "B"},
			feature.Def{Name: "topic", Kind: feature.Categorical, Set: "A", Servable: true},
		),
	}
	for i, v := range variants {
		if SchemaHash(v) == h {
			t.Fatalf("variant %d hashes identically to the base schema", i)
		}
	}
	if SchemaHash(testSchema()) != h {
		t.Fatal("SchemaHash is not deterministic")
	}
}

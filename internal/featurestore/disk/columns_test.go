package disk

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"crossmodal/internal/feature"
)

// TestScanColumnsMatchesScanProjected: the column views of a scan answer
// Present / Num / CatIDs for every (column, row) exactly as the vectors the
// same scan decodes — under the store schema, a reordered sub-schema, and one
// naming a feature the store lacks — with labels and ordinals in append order.
func TestScanColumnsMatchesScanProjected(t *testing.T) {
	ctx := context.Background()
	schema := testSchema()
	s, err := Open(t.TempDir(), schema, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for c := 0; c < 3; c++ {
		appendTestChunk(t, s, 1000*c, 90+37*c, int64(c))
	}
	for name, target := range map[string]*feature.Schema{
		"store": schema,
		"sub": feature.MustSchema(schema.Def(3), feature.Def{Name: "ghost", Kind: feature.Numeric},
			schema.Def(0), feature.Def{Name: "spectre", Kind: feature.Categorical}, schema.Def(2)),
	} {
		type chunk struct {
			labels []int8
			vecs   []*feature.Vector
		}
		var want []chunk
		if err := s.ScanProjected(ctx, target, func(_ int, _ []int, labels []int8, vecs []*feature.Vector) error {
			want = append(want, chunk{labels, vecs})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		err := s.ScanColumns(ctx, target, func(seq int, labels []int8, parts []feature.Columns) error {
			w := want[seq]
			if !slices.Equal(labels, w.labels) {
				t.Fatalf("%s chunk %d: labels differ", name, seq)
			}
			seen := make([]bool, len(labels))
			for _, c := range parts {
				for r := 0; r < c.Rows(); r++ {
					ord := c.Ord(r)
					if seen[ord] {
						t.Fatalf("%s chunk %d: ordinal %d twice", name, seq, ord)
					}
					seen[ord] = true
					v := w.vecs[ord]
					for col := 0; col < target.Len(); col++ {
						if c.Present(col, r) != v.Present(col) {
							t.Fatalf("%s chunk %d row %d col %d: Present %v, vector %v", name, seq, ord, col, c.Present(col, r), v.Present(col))
						}
						switch target.Def(col).Kind {
						case feature.Numeric:
							if v.Present(col) && math.Float64bits(c.Num(col, r)) != math.Float64bits(v.Num(col)) {
								t.Fatalf("%s chunk %d row %d col %d: Num %v, vector %v", name, seq, ord, col, c.Num(col, r), v.Num(col))
							}
						case feature.Categorical:
							var wantIDs []uint32
							for _, cat := range v.Categories(col) {
								wantIDs = append(wantIDs, feature.InternID(cat))
							}
							if got := c.CatIDs(col, r, nil); !slices.Equal(got, wantIDs) {
								t.Fatalf("%s chunk %d row %d col %d: CatIDs %v, vector's %v", name, seq, ord, col, got, wantIDs)
							}
						}
					}
				}
			}
			if slices.Contains(seen, false) {
				t.Fatalf("%s chunk %d: views miss a row", name, seq)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("stop")
	if err := s.ScanColumns(ctx, schema, func(int, []int8, []feature.Columns) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error = %v, want it returned", err)
	}
	if err := s.ScanColumns(ctx, feature.MustSchema(feature.Def{Name: "score", Kind: feature.Categorical}), nil); err == nil {
		t.Fatal("a target redefining a stored feature must be refused")
	}
}

// TestRepeatedOrdinalFailsEveryReader: a two-segment chunk in which one
// segment repeats a row ordinal (every per-segment check passes: the damage
// only shows across segments) is ErrCorrupt to every reader — the vector
// scan, the column scan, Find, and a ScanFirst window that ends before the
// damaged ordinals — never a silently defaulted row.
func TestRepeatedOrdinalFailsEveryReader(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	schema := testSchema()
	s, err := Open(dir, schema, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _ := appendTestChunk(t, s, 0, 40, 1)
	segs := s.Segments(0)
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	// Re-encode shard 1's rows with its last ordinal replaced by shard 0's
	// last: in range, properly checksummed, but repeated within the chunk.
	seg := segs[1]
	var segIDs []uint64
	var ords []uint32
	var labels []int8
	var vecs []*feature.Vector
	proj, err := newProjection(schema, schema)
	if err != nil {
		t.Fatal(err)
	}
	dec := rowDecoder{seg: seg, proj: proj}
	for r := 0; r < seg.Rows(); r++ {
		v := feature.NewVector(schema)
		if err := dec.row(r, v); err != nil {
			t.Fatal(err)
		}
		segIDs, ords = append(segIDs, seg.ID(r)), append(ords, uint32(seg.Ord(r)))
		labels, vecs = append(labels, seg.Label(r)), append(vecs, v)
	}
	last := len(ords) - 1
	window := min(int(ords[last]), segs[0].Ord(segs[0].Rows()-1)) // rows below both damaged ordinals
	ords[last] = uint32(segs[0].Ord(segs[0].Rows() - 1))
	if window == 0 {
		t.Fatal("damaged ordinal 0: no window ends before it")
	}
	data, err := new(encoder).encodeSegment(schema, SchemaHash(schema), 1, 2, 0, segIDs, ords, labels, vecs)
	if err != nil {
		t.Fatal(err)
	}
	path := seg.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, schema, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Chunks() != 1 || len(s.Quarantined()) != 0 {
		t.Fatalf("crafted chunk did not open: %d chunks, quarantined %v", s.Chunks(), s.Quarantined())
	}
	var ce *ErrCorrupt
	for name, read := range map[string]func() error{
		"ScanChunks": func() error {
			return s.ScanChunks(ctx, func(int, []int, []int8, []*feature.Vector) error { return nil })
		},
		"ScanColumns": func() error {
			return s.ScanColumns(ctx, schema, func(int, []int8, []feature.Columns) error { return nil })
		},
		"Find": func() error { _, err := s.Find(ctx, ids[:3]); return err },
		"ScanFirst": func() error {
			var buf []feature.Vector
			return s.ScanFirst(ctx, schema, window, &buf, func(int, []int, []int8, []*feature.Vector) error {
				t.Error("ScanFirst handed out rows of a corrupt chunk")
				return nil
			})
		},
	} {
		if err := read(); !errors.As(err, &ce) || filepath.Base(ce.Path) != filepath.Base(path) {
			t.Errorf("%s over a repeated ordinal: err = %v, want ErrCorrupt naming %s", name, err, filepath.Base(path))
		}
	}
}

package disk

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"crossmodal/internal/feature"
)

// TestScanColumnsMatchesScanProjected: the column views of a scan answer
// Present / Num / CatIDs for every (column, row) exactly as the vectors the
// same scan decodes — under the store schema, a reordered sub-schema, and one
// naming a feature the store lacks — with labels and ordinals in append order,
// over chunks of one view, of two full views and of views with a short tail.
func TestScanColumnsMatchesScanProjected(t *testing.T) {
	ctx := context.Background()
	schema := testSchema()
	s, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for c, n := range []int{90, 2 * feature.ViewRows, 2*feature.ViewRows + 76} {
		appendTestChunk(t, s, 10000*c, n, int64(c))
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
							for _, cat := range v.CategoryNames(col) {
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

// TestScanColumnsViewsAreConsecutiveRuns: ScanColumns hands out a chunk as
// consecutive views of feature.ViewRows rows, the last one shorter, whose
// ordinals run ascending from 0 and together cover [0, rows) once.
func TestScanColumnsViewsAreConsecutiveRuns(t *testing.T) {
	s, err := Open(t.TempDir(), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sizes := []int{1, feature.ViewRows, 3*feature.ViewRows + 1, 2*feature.ViewRows - 7}
	for c, n := range sizes {
		appendTestChunk(t, s, 10000*c, n, int64(c))
	}
	err = s.ScanColumns(context.Background(), s.Schema(), func(seq int, labels []int8, parts []feature.Columns) error {
		rows := sizes[seq]
		if len(labels) != rows || len(parts) != (rows+feature.ViewRows-1)/feature.ViewRows {
			t.Fatalf("chunk %d of %d rows: %d labels, %d views", seq, rows, len(labels), len(parts))
		}
		next := 0
		for k, c := range parts {
			if want := min(feature.ViewRows, rows-next); c.Rows() != want {
				t.Fatalf("chunk %d view %d: %d rows, want %d", seq, k, c.Rows(), want)
			}
			for r := 0; r < c.Rows(); r++ {
				if c.Ord(r) != next {
					t.Fatalf("chunk %d view %d row %d: ordinal %d, want %d", seq, k, r, c.Ord(r), next)
				}
				next++
			}
		}
		if next != rows {
			t.Fatalf("chunk %d: views cover %d of %d rows", seq, next, rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

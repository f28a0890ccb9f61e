package disk

import "testing"

// TestShardReadAllocs pins the zero-allocation contract of the segment
// read hot path: scanning a committed chunk's mapped segment must not
// allocate, or million-row scans turn into GC storms.
func TestShardReadAllocs(t *testing.T) {
	schema := testSchema()
	s, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendTestChunk(t, s, 0, 128, 11)
	seg := s.chunks[0]

	embCol := schemaIndex(t, schema, "emb")
	topicCol := schemaIndex(t, schema, "topic")
	scoreCol := schemaIndex(t, schema, "score")
	buf := make([]float64, 0, 8)
	var sink float64
	var cats int

	cases := []struct {
		name string
		fn   func()
	}{
		{"ids+labels", func() {
			for r := 0; r < seg.Rows(); r++ {
				sink += float64(seg.ID(r)) + float64(seg.Label(r))
			}
		}},
		{"numeric", func() {
			for r := 0; r < seg.Rows(); r++ {
				if seg.Present(scoreCol, r) {
					sink += seg.Numeric(scoreCol, r)
				}
			}
		}},
		{"embedding", func() {
			for r := 0; r < seg.Rows(); r++ {
				if seg.Present(embCol, r) {
					buf = seg.EmbeddingInto(embCol, r, buf[:0])
					sink += buf[0]
				}
			}
		}},
		{"categorical", func() {
			for r := 0; r < seg.Rows(); r++ {
				if !seg.Present(topicCol, r) {
					continue
				}
				n := seg.NumCategories(topicCol, r)
				for k := 0; k < n; k++ {
					cats += len(seg.Category(topicCol, r, k))
				}
			}
		}},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs per scan, want 0", tc.name, avg)
		}
	}
	_ = sink
	_ = cats
}

package disk

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"crossmodal/internal/feature"
)

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
	view := wholeSegment(t, seg, schema)
	buf := make([]float64, 0, 8)
	ids := make([]uint32, 0, 64)
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
				ids = view.CatIDs(topicCol, r, ids[:0])
				cats += len(ids)
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

// TestEncodeKeepsNoChunkImage: a segment streams to its file through the
// encoder's fixed write buffer, so encoding a chunk whose file is several
// times that buffer allocates far less than the file — the encoder builds no
// image of it. The GC is off while it counts: a cycle adds stray mallocs.
func TestEncodeKeepsNoChunkImage(t *testing.T) {
	schema := feature.MustSchema(
		feature.Def{Name: "score", Kind: feature.Numeric},
		feature.Def{Name: "emb", Kind: feature.Embedding, Dim: 32},
		feature.Def{Name: "topic", Kind: feature.Categorical},
	)
	const rows = 4096
	ids, labels, vecs := make([]int, rows), make([]int8, rows), make([]*feature.Vector, rows)
	for r := range vecs {
		v := feature.NewVector(schema)
		v.MustSet("score", feature.NumericValue(float64(r)))
		v.MustSet("emb", feature.EmbeddingValue(make([]float64, 32)))
		v.MustSet("topic", feature.CategoricalValue(fmt.Sprintf("t%d", r%7)))
		ids[r], vecs[r] = r, v
	}
	f, err := os.CreateTemp(t.TempDir(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	size, err := new(encoder).encodeSegment(f, schema, SchemaHash(schema), 0, ids, labels, vecs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; size < 16*writeBuffer || alloc > uint64(size)/4 {
		t.Errorf("encoding a %d-byte segment allocated %d bytes, want under a quarter of it", size, alloc)
	}
}

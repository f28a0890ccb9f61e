package disk

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/xrand"
)

// format1Segment rewrites a format-2 segment image into the format-1 layout
// it replaced: a 48-byte version-1 header naming shard 0 of 1, and a row
// ordinal column after the point IDs.
func format1Segment(data []byte) []byte {
	le := binary.LittleEndian
	rows := int(le.Uint32(data[16:]))
	payload := data[headerSize : len(data)-4]
	v1 := append([]byte(nil), payload[:8*rows]...)
	for r := 0; r < rows; r++ {
		v1 = le.AppendUint32(v1, uint32(r))
	}
	v1 = append(v1, payload[8*rows:]...)
	out := append([]byte(nil), data[:8]...)           // magic
	out = le.AppendUint32(out, 1)                     // version
	out = le.AppendUint32(le.AppendUint32(out, 0), 1) // shard, nshards
	out = append(out, data[12:28]...)                 // chunk, rows, schema hash
	out = le.AppendUint64(out, uint64(len(v1)))
	out = le.AppendUint32(out, crc32.ChecksumIEEE(out))
	return le.AppendUint32(append(out, v1...), crc32.ChecksumIEEE(v1))
}

// fuzzSeeds builds the seed corpus for FuzzSegmentLoad: a real encoded
// segment plus the classic corruption shapes — flipped payload bits,
// lying length fields (with recomputed header CRC so the lie survives the
// first gate), truncation, an empty file — and the same rows in format 1.
func fuzzSeeds(f *testing.F) {
	schema := testSchema()
	good := encodeTestSegment(f, schema, 32, 3)
	f.Add(good)

	flip := append([]byte(nil), good...)
	flip[headerSize+10] ^= 0x01 // payload CRC now wrong
	f.Add(flip)

	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lying[16:], 1<<25) // rows claims 32M
	binary.LittleEndian.PutUint32(lying[36:], crc32.ChecksumIEEE(lying[:36]))
	f.Add(lying)

	lyingLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lyingLen[28:], uint64(maxPayload)) // payloadLen lies huge
	binary.LittleEndian.PutUint32(lyingLen[36:], crc32.ChecksumIEEE(lyingLen[:36]))
	f.Add(lyingLen)

	f.Add(good[:len(good)/2]) // truncated mid-payload
	f.Add(good[:headerSize])  // header only
	f.Add([]byte{})           // zero-length file
	f.Add([]byte("XMODFST1"))
	f.Add(encodeTestSegment(f, schema, 1, 4))
	f.Add(format1Segment(good))
}

// FuzzSegmentLoad feeds arbitrary bytes through the full segment-open path
// (mmap + header + CRC + column layout). Corrupt inputs must come back as
// ErrCorrupt — never a panic, never an allocation driven by a length field
// rather than by bytes actually present in the file, and never a category
// interned from a file that was then rejected. Accepted inputs must decode:
// every accessor and the projected slab decoder stay in bounds over every
// row, and the slab decode agrees with the row-at-a-time decode.
func FuzzSegmentLoad(f *testing.F) {
	fuzzSeeds(f)
	schema := testSchema()
	hash := SchemaHash(schema)
	identity, err := newProjection(schema, schema)
	if err != nil {
		f.Fatal(err)
	}
	// Reordered, skipping a stored column, naming one the store lacks.
	subset, err := newProjection(schema, feature.MustSchema(
		schema.Def(3), feature.Def{Name: "absent", Kind: feature.Categorical}, schema.Def(1), schema.Def(2)))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, segName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		interned := feature.InternCount()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seg, err := openSegment(path, schema, hash)
		runtime.ReadMemStats(&after)
		if err != nil {
			var ce *ErrCorrupt
			if !errors.As(err, &ce) {
				t.Fatalf("openSegment returned non-corruption error %v (%T)", err, err)
			}
			// A rejected file must not have cost allocations proportional
			// to a lying length field: bound total allocation by the input
			// size plus slack for mmap bookkeeping and test overhead.
			if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > int64(len(data))+1<<20 {
				t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(data), grew)
			}
			if got := feature.InternCount(); got != interned {
				t.Fatalf("rejecting a file interned %d categories", got-interned)
			}
			return
		}
		defer seg.Close()
		// Accepted: every accessor over every row must stay in bounds.
		for r := 0; r < seg.Rows(); r++ {
			_ = seg.ID(r)
			_ = seg.Label(r)
		}
		for _, proj := range []*projection{identity, subset} {
			slab := feature.NewVectors(proj.target, seg.Rows())
			var cats, embs uint64
			for r := range slab {
				c, e := seg.rowPayloadSize(proj, r)
				cats, embs = cats+c, embs+e
			}
			slab[0].Grow(int(cats), int(embs))
			dec := rowDecoder{seg: seg, proj: proj}
			for r := range slab {
				single := feature.NewVector(proj.target)
				if err := errors.Join(dec.row(r, &slab[r]), (&rowDecoder{seg: seg, proj: proj}).row(r, single)); err != nil {
					t.Fatalf("row %d: %v", r, err)
				}
				if !single.Equal(&slab[r]) {
					t.Fatalf("row %d: slab decode %v, single-row decode %v", r, &slab[r], single)
				}
			}
		}
	})
}

// FuzzSegmentHeader fuzzes the fixed-header parser in isolation: arbitrary
// byte strings must parse or fail cleanly, and every accepted header must
// re-encode to the same 40 bytes (parse∘encode is the identity on valid
// headers). A format-1 header never parses.
func FuzzSegmentHeader(f *testing.F) {
	schema := testSchema()
	good := encodeTestSegment(f, schema, 8, 5)
	f.Add(good[:headerSize+12+4])
	f.Add(good[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("XMODFST1\x02\x00\x00\x00"))
	bad := append([]byte(nil), good[:headerSize]...)
	bad[9] = 0xff // version
	f.Add(bad)
	f.Add(format1Segment(good))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHeader(data)
		if len(data) >= 12 && binary.LittleEndian.Uint32(data[8:]) == 1 && err == nil {
			t.Fatalf("parseHeader accepted a format-1 header %+v", h)
		}
		if err != nil {
			var ce *ErrCorrupt
			if !errors.As(err, &ce) {
				t.Fatalf("parseHeader returned %T, want *ErrCorrupt", err)
			}
			return
		}
		if h.Rows <= 0 || h.Rows > maxRows || h.PayloadLen <= 0 || h.PayloadLen > maxPayload {
			t.Fatalf("parseHeader accepted out-of-range header %+v", h)
		}
		if len(data) != headerSize+h.PayloadLen+4 {
			t.Fatalf("accepted header implies %d bytes, file has %d", headerSize+h.PayloadLen+4, len(data))
		}
		if got := putHeader(h); string(got) != string(data[:headerSize]) {
			t.Fatalf("header does not round-trip:\n got %x\nwant %x", got, data[:headerSize])
		}
	})
}

// FuzzScanColumnsMatchesScanProjected: for any row count, chunk size and
// cap, the column views of a scan agree with ScanProjected's decoded rows on
// presence, numbers, categories and embeddings, row for row in append order
// with labels and chunk sequence — under the store schema and a reordered
// sub-schema naming a feature the store lacks — and a callback error at the
// chunk holding row cap ends the scan there, returned as is.
func FuzzScanColumnsMatchesScanProjected(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(30), uint16(45))
	f.Add(int64(2), uint16(1), uint8(1), uint16(0))
	f.Add(int64(3), uint16(257), uint8(64), uint16(300))
	f.Add(int64(4), uint16(90), uint8(29), uint16(30))
	schema := testSchema()
	sub := feature.MustSchema(schema.Def(3), feature.Def{Name: "absent", Kind: feature.Categorical}, schema.Def(1))
	stop := errors.New("cap reached")
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, chunk uint8, limit uint16) {
		nRows := 1 + int(rows)%300
		size := max(1+int(chunk), (nRows+15)/16) // at most 16 chunks
		nCap := int(limit) % (nRows + 6)
		s, err := Open(t.TempDir(), schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := xrand.New(seed)
		for lo := 0; lo < nRows; lo += size {
			vecs := randomChunk(rng, schema, min(size, nRows-lo), nil)
			ids := make([]int, len(vecs))
			labels := make([]int8, len(vecs))
			for i := range ids {
				ids[i], labels[i] = lo+i, int8(rng.Intn(3)-1)
			}
			if err := s.AppendChunk(context.Background(), ids, labels, vecs); err != nil {
				t.Fatal(err)
			}
		}
		for _, target := range []*feature.Schema{schema, sub} {
			want := scanRows(t, s, target)
			got := 0
			err := s.ScanColumns(context.Background(), target, func(seq int, labels []int8, parts []feature.Columns) error {
				for _, c := range parts {
					for r := range c.Rows() {
						w := want[got+c.Ord(r)]
						if seq != w.seq || labels[c.Ord(r)] != w.label {
							t.Fatalf("row %d: chunk %d label %d, want chunk %d label %d", got+c.Ord(r), seq, labels[c.Ord(r)], w.seq, w.label)
						}
						sameRow(t, fmt.Sprintf("row %d", got+c.Ord(r)), target, c, r, w.vec)
					}
				}
				if got += len(labels); got > nCap {
					return stop
				}
				return nil
			})
			var wantErr error
			if nCap < nRows {
				wantErr = stop
			}
			if err != wantErr {
				t.Fatalf("cap %d of %d rows: scan returned %v, want %v", nCap, nRows, err, wantErr)
			}
			if read := min(nRows, (nCap/size+1)*size); got != read {
				t.Fatalf("cap %d: the scan read %d rows, want the %d up to the chunk holding it", nCap, got, read)
			}
		}
	})
}

package disk

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"crossmodal/internal/feature"
)

// fuzzSeeds builds the seed corpus for FuzzShardLoad: a real encoded
// segment plus the classic corruption shapes — flipped payload bits,
// lying length fields (with recomputed header CRC so the lie survives the
// first gate), truncation, and an empty file.
func fuzzSeeds(f *testing.F) {
	schema := testSchema()
	good := encodeTestSegment(f, schema, 32, 3)
	f.Add(good)

	flip := append([]byte(nil), good...)
	flip[headerSize+10] ^= 0x01 // payload CRC now wrong
	f.Add(flip)

	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lying[24:], 1<<25) // rows claims 32M
	binary.LittleEndian.PutUint32(lying[44:], crc32.ChecksumIEEE(lying[:44]))
	f.Add(lying)

	lyingLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lyingLen[36:], uint64(maxPayload)) // payloadLen lies huge
	binary.LittleEndian.PutUint32(lyingLen[44:], crc32.ChecksumIEEE(lyingLen[:44]))
	f.Add(lyingLen)

	f.Add(good[:len(good)/2]) // truncated mid-payload
	f.Add(good[:headerSize])  // header only
	f.Add([]byte{})           // zero-length file
	f.Add([]byte("XMODFST1"))
	f.Add(encodeTestSegment(f, schema, 1, 4))
}

// FuzzShardLoad feeds arbitrary bytes through the full segment-open path
// (mmap + header + CRC + column layout). Corrupt inputs must come back as
// ErrCorrupt — never a panic, never an allocation driven by a length field
// rather than by bytes actually present in the file, and never a category
// interned from a file that was then rejected. Accepted inputs must decode:
// every accessor and the projected slab decoder stay in bounds over every
// row, and the slab decode agrees with the row-at-a-time decode.
func FuzzShardLoad(f *testing.F) {
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
		path := filepath.Join(dir, segName(0, 0))
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
			_ = seg.Ord(r)
			_ = seg.Label(r)
		}
		for _, proj := range []*projection{identity, subset} {
			slab := feature.NewVectors(proj.target, seg.Rows())
			cats, embs := seg.payloadSize(proj)
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

// FuzzShardHeader fuzzes the fixed-header parser in isolation: arbitrary
// byte strings must parse or fail cleanly, and every accepted header must
// re-encode to the same 48 bytes (parse∘encode is the identity on valid
// headers).
func FuzzShardHeader(f *testing.F) {
	schema := testSchema()
	good := encodeTestSegment(f, schema, 8, 5)
	f.Add(good[:headerSize+12+4])
	f.Add(good[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("XMODFST1\x01\x00\x00\x00"))
	bad := append([]byte(nil), good[:headerSize]...)
	bad[9] = 0xff // version
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHeader(data)
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

// Package disk is the columnar, mmap-backed feature store that lets the
// curation pipeline run at corpus sizes that do not fit in RAM (ROADMAP
// item 1: the paper's Expander-scale deployment curates 18–26M text and
// ~7.4M image points; our in-memory slices top out around 10⁵).
//
// A store is a directory of segment files, one per chunk. Writes are
// append-only: the pipeline appends one *chunk* of rows at a time, and the
// chunk's rows land in one segment (`cNNNNNN.seg`) in append order. The
// segment is written to a temp file and atomically renamed into place; the
// chunk becomes durable only when its commit marker (`cNNNNNN.ok`) is
// renamed after it. A crash at any point therefore leaves either a fully
// committed chunk or loose un-marked files, which Open detects and
// quarantines — the same crash model the fusion artifact format uses,
// extended from one file to a two-file commit.
//
// Segment layout (all integers little-endian), mirroring the hardened
// XMODART1 artifact format — versioned magic, length validation before any
// allocation, CRC over the payload:
//
//	magic      [8]byte  "XMODFST1"
//	version    uint32   format version (2)
//	chunk      uint32   chunk sequence number
//	rows       uint32   row count
//	schemaHash uint64   FNV-64a fingerprint of the feature schema
//	payloadLen uint64   byte length of the columnar payload
//	headerCRC  uint32   IEEE CRC-32 of the 36 header bytes above
//	payload    [payloadLen]byte
//	payloadCRC uint32   IEEE CRC-32 of the payload
//
// The payload is columnar, rows in append order:
//
//	ids    rows × uint64   point IDs
//	labels rows × int8     ground-truth labels (diagnostics; pipelines gate reads)
//	then, per schema feature in order:
//	  presence bitmap, ceil(rows/8) bytes (bit r set ⇒ row r non-missing)
//	  Numeric:   rows × uint64 raw float64 bits
//	  Embedding: rows × dim × uint64 raw float64 bits
//	  Categorical:
//	    dictCount uint32, then dictCount × (uint16 len + bytes) — the
//	      segment-local dictionary, in first-appearance order
//	    offsets (rows+1) × uint32 into the local-ID array
//	    localIDs offsets[rows] × uint32 — per-row category IDs in the
//	      value's original order, duplicates preserved
//
// Format 1 (48-byte header with a shard index and count, a per-row ordinal
// column, one segment per shard named `cNNNNNN-sNNN.seg`) is not read: its
// files match no segment name, so Open quarantines them and the store starts
// empty.
//
// Floats round-trip as raw bits and categorical values keep their exact
// order and multiplicity, so a vector read back is bit-identical to the
// one written — the property the behaviour contract's streamed runs depend on.
// Interned-categorical encoding: the per-segment dictionary is interned once
// when the segment opens, so materializing a row maps its local IDs to the
// intern-ID set feature.SimKernel consumes by index.
package disk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"

	"crossmodal/internal/feature"
)

const (
	formatVersion = 2
	headerSize    = 40

	// Hard caps, validated before any size-driven allocation so a corrupt
	// or adversarial header cannot force a huge allocation (the fusion.LoadLineage
	// progressive-read discipline).
	maxRows        = 1 << 26
	maxPayload     = 1<<31 - 1
	maxDictEntries = 1 << 22
	maxCatIDs      = 1 << 28
)

var segmentMagic = [8]byte{'X', 'M', 'O', 'D', 'F', 'S', 'T', '1'}

// ErrCorrupt tags every validation failure so callers can distinguish a
// damaged file from an I/O error.
type ErrCorrupt struct {
	Path   string
	Detail string
}

func (e *ErrCorrupt) Error() string {
	if e.Path == "" {
		return "disk: corrupt segment: " + e.Detail
	}
	return fmt.Sprintf("disk: corrupt segment %s: %s", e.Path, e.Detail)
}

func corrupt(format string, args ...any) error {
	return &ErrCorrupt{Detail: fmt.Sprintf(format, args...)}
}

// SchemaHash fingerprints a feature schema (names, kinds, sets, dims,
// servability, in order) so a store refuses rows written under a different
// schema instead of mis-decoding columns.
func SchemaHash(schema *feature.Schema) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		h.Write([]byte(d.Name))
		h.Write([]byte{0, byte(d.Kind)})
		binary.LittleEndian.PutUint32(scratch[:4], uint32(d.Dim))
		h.Write(scratch[:4])
		h.Write([]byte(d.Set))
		sv := byte(0)
		if d.Servable {
			sv = 1
		}
		h.Write([]byte{0, sv})
	}
	return h.Sum64()
}

// header is the decoded fixed-size segment header.
type header struct {
	Chunk      int
	Rows       int
	SchemaHash uint64
	PayloadLen int
}

// putHeader encodes h into a headerSize byte slice, including the header
// CRC.
func putHeader(h header) []byte {
	buf := make([]byte, headerSize)
	copy(buf, segmentMagic[:])
	le := binary.LittleEndian
	le.PutUint32(buf[8:], formatVersion)
	le.PutUint32(buf[12:], uint32(h.Chunk))
	le.PutUint32(buf[16:], uint32(h.Rows))
	le.PutUint64(buf[20:], h.SchemaHash)
	le.PutUint64(buf[28:], uint64(h.PayloadLen))
	le.PutUint32(buf[36:], crc32.ChecksumIEEE(buf[:36]))
	return buf
}

// parseHeader validates the fixed header. It reads only the first
// headerSize bytes and never allocates proportionally to any length field.
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, corrupt("file too short for header: %d bytes", len(data))
	}
	if !bytes.Equal(data[:8], segmentMagic[:]) {
		return h, corrupt("bad magic %q", data[:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != formatVersion {
		return h, corrupt("version %d, want %d", v, formatVersion)
	}
	if got := le.Uint32(data[36:]); got != crc32.ChecksumIEEE(data[:36]) {
		return h, corrupt("header CRC mismatch")
	}
	h.Chunk = int(le.Uint32(data[12:]))
	h.Rows = int(le.Uint32(data[16:]))
	h.SchemaHash = le.Uint64(data[20:])
	payloadLen := le.Uint64(data[28:])
	if h.Rows <= 0 || h.Rows > maxRows {
		return h, corrupt("implausible row count %d", h.Rows)
	}
	if payloadLen == 0 || payloadLen > maxPayload {
		return h, corrupt("implausible payload length %d", payloadLen)
	}
	h.PayloadLen = int(payloadLen)
	want := headerSize + h.PayloadLen + 4
	if len(data) != want {
		return h, corrupt("file is %d bytes, header implies %d", len(data), want)
	}
	return h, nil
}

// colMeta locates one feature's column inside a parsed payload. Offsets
// are relative to the payload start.
type colMeta struct {
	kind feature.Kind
	dim  int
	pres int      // presence bitmap offset
	data int      // numeric/embedding data, or the cat offsets array
	ids  int      // categorical local-ID array offset
	dict []string // the dictionary as read; openSegment interns it and drops it
	// dictIDs[k] is feature.InternID(dict[k]); filled by openSegment once the
	// segment is fully validated.
	dictIDs []uint32
}

// payloadLayout walks and validates the columnar payload, returning the
// column directory. Every read is bounds-checked against the actual byte
// count, so lying lengths fail cleanly; allocations (the dictionaries) are
// bounded by the bytes actually present in the file.
func payloadLayout(payload []byte, schema *feature.Schema, rows int) ([]colMeta, error) {
	cur := cursor{b: payload}
	cur.skip(8 * rows) // ids
	cur.skip(rows)     // labels
	bitmapLen := (rows + 7) / 8
	cols := make([]colMeta, schema.Len())
	for i := range cols {
		d := schema.Def(i)
		c := &cols[i]
		c.kind, c.dim = d.Kind, d.Dim
		c.pres = cur.off
		cur.skip(bitmapLen)
		switch d.Kind {
		case feature.Numeric:
			c.data = cur.off
			cur.skip(8 * rows)
		case feature.Embedding:
			c.data = cur.off
			cur.skip(8 * rows * d.Dim)
		case feature.Categorical:
			dictCount := int(cur.u32())
			if cur.err != nil {
				return nil, cur.err
			}
			if dictCount > maxDictEntries {
				return nil, corrupt("feature %q: implausible dictionary size %d", d.Name, dictCount)
			}
			// Each entry occupies at least its 2-byte length prefix, so a
			// dictCount the remaining bytes cannot hold is a lie — reject it
			// before sizing the dictionary from it.
			if dictCount > (len(payload)-cur.off)/2 {
				return nil, corrupt("feature %q: dictionary size %d exceeds remaining payload", d.Name, dictCount)
			}
			c.dict = make([]string, dictCount)
			for k := 0; k < dictCount; k++ {
				n := int(cur.u16())
				s := cur.bytes(n)
				if cur.err != nil {
					return nil, cur.err
				}
				c.dict[k] = string(s)
			}
			c.data = cur.off
			cur.skip(4 * (rows + 1))
			if cur.err != nil {
				return nil, cur.err
			}
			// Offsets must be monotone and end exactly at the ID count.
			le := binary.LittleEndian
			prev := uint32(0)
			for r := 0; r <= rows; r++ {
				o := le.Uint32(payload[c.data+4*r:])
				if o < prev {
					return nil, corrupt("feature %q: offsets not monotone at row %d", d.Name, r)
				}
				prev = o
			}
			total := int(prev)
			if total > maxCatIDs {
				return nil, corrupt("feature %q: implausible category-ID count %d", d.Name, total)
			}
			if le.Uint32(payload[c.data:]) != 0 {
				return nil, corrupt("feature %q: offsets do not start at 0", d.Name)
			}
			c.ids = cur.off
			cur.skip(4 * total)
			if cur.err != nil {
				return nil, cur.err
			}
			for k := 0; k < total; k++ {
				if id := le.Uint32(payload[c.ids+4*k:]); int(id) >= dictCount {
					return nil, corrupt("feature %q: category ID %d out of dictionary range %d", d.Name, id, dictCount)
				}
			}
		default:
			return nil, corrupt("feature %q: unknown kind %d", d.Name, int(d.Kind))
		}
		if cur.err != nil {
			return nil, cur.err
		}
	}
	if cur.off != len(payload) {
		return nil, corrupt("payload has %d trailing bytes", len(payload)-cur.off)
	}
	return cols, nil
}

// cursor is a bounds-checked forward reader over a payload. All reads
// after the first failure are no-ops with err set, so decode loops need a
// single check per batch of reads.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = corrupt(format, args...)
	}
}

func (c *cursor) skip(n int) {
	if c.err != nil {
		return
	}
	if n < 0 || c.off+n > len(c.b) || c.off+n < c.off {
		c.fail("truncated payload: need %d bytes at offset %d of %d", n, c.off, len(c.b))
		return
	}
	c.off += n
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	start := c.off
	c.skip(n)
	if c.err != nil {
		return nil
	}
	return c.b[start : start+n]
}

func (c *cursor) u16() uint16 {
	b := c.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// writeBuffer is the size of the buffer a segment streams through: the
// encoder's whole share of a chunk's file image.
const writeBuffer = 64 << 10

// encoder is the scratch a Store encodes its segments in — the write buffer,
// one column's presence bitmap and the per-column dictionary state — kept
// across chunks.
type encoder struct {
	crc      hash.Hash32
	bw       *bufio.Writer // over the file and crc
	pres     []byte
	dictIdx  map[uint32]uint32 // intern ID → segment-local ID
	dict     []uint32          // intern IDs in local-ID order
	offsets  []uint32
	localIDs []uint32
}

// encodeSegment serializes one chunk into f, a fresh file, and returns the
// file's size. ids, labels, and vecs are parallel; every vector must carry
// schema. The payload streams from offset headerSize through a bufio.Writer,
// its CRC computed as the bytes go out; the payload CRC follows it, and the
// header, which records the payload length, is written last at offset 0.
func (e *encoder) encodeSegment(f *os.File, schema *feature.Schema, schemaHash uint64, chunk int, ids []int, labels []int8, vecs []*feature.Vector) (int, error) {
	rows := len(vecs)
	if rows == 0 || rows > maxRows {
		return 0, fmt.Errorf("disk: segment row count %d out of range", rows)
	}
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return 0, err
	}
	if e.bw == nil {
		e.crc = crc32.NewIEEE()
		e.bw = bufio.NewWriterSize(nil, writeBuffer)
		e.dictIdx = make(map[uint32]uint32)
	}
	e.crc.Reset()
	e.bw.Reset(io.MultiWriter(f, e.crc))
	// out is the bytes appended since the last bw.Write, in bw's free space:
	// a local, so the column loops keep it in registers.
	out := e.bw.AvailableBuffer()
	le := binary.LittleEndian
	for _, id := range ids {
		out = e.room(out, 8)
		out = le.AppendUint64(out, uint64(id))
	}
	for _, l := range labels {
		out = e.room(out, 1)
		out = append(out, byte(l))
	}
	// Every column opens with its presence bitmap, so one row-major pass
	// fills all of them before any column's bytes go out.
	bitmapLen := (rows + 7) / 8
	e.pres = append(e.pres[:0], make([]byte, schema.Len()*bitmapLen)...)
	for r, v := range vecs {
		for i := 0; i < schema.Len(); i++ {
			if v.Present(i) {
				e.pres[i*bitmapLen+r/8] |= 1 << (r % 8)
			}
		}
	}
	for i := 0; i < schema.Len(); i++ {
		d := schema.Def(i)
		if d.Kind == feature.Categorical {
			if err := e.dictionary(d.Name, i, vecs); err != nil {
				return 0, err
			}
		}
		out = e.room(out, bitmapLen)
		out = append(out, e.pres[i*bitmapLen:][:bitmapLen]...)
		switch d.Kind {
		case feature.Numeric:
			for _, v := range vecs {
				out = e.room(out, 8)
				out = le.AppendUint64(out, math.Float64bits(v.Num(i)))
			}
		case feature.Embedding:
			for _, v := range vecs {
				vec := v.Vec(i) // nil when missing: zeros
				if v.Present(i) && len(vec) != d.Dim {
					return 0, fmt.Errorf("disk: feature %q: embedding dim %d, schema wants %d", d.Name, len(vec), d.Dim)
				}
				out = e.room(out, 8*d.Dim)
				for k := 0; k < d.Dim; k++ {
					var x uint64
					if k < len(vec) {
						x = math.Float64bits(vec[k])
					}
					out = le.AppendUint64(out, x)
				}
			}
		case feature.Categorical:
			out = e.room(out, 4)
			out = le.AppendUint32(out, uint32(len(e.dict)))
			for _, id := range e.dict {
				s := feature.InternedCategory(id)
				out = e.room(out, 2+len(s))
				out = append(le.AppendUint16(out, uint16(len(s))), s...)
			}
			for _, o := range e.offsets {
				out = e.room(out, 4)
				out = le.AppendUint32(out, o)
			}
			for _, id := range e.localIDs {
				out = e.room(out, 4)
				out = le.AppendUint32(out, id)
			}
		}
	}
	e.bw.Write(out)
	if err := e.bw.Flush(); err != nil {
		return 0, err
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	if end-headerSize > maxPayload {
		return 0, fmt.Errorf("disk: segment payload %d bytes exceeds cap", end-headerSize)
	}
	payloadLen := int(end) - headerSize
	if _, err := f.Write(le.AppendUint32(e.pres[:0], e.crc.Sum32())); err != nil {
		return 0, err
	}
	if _, err := f.WriteAt(putHeader(header{Chunk: chunk, Rows: rows, SchemaHash: schemaHash, PayloadLen: payloadLen}), 0); err != nil {
		return 0, err
	}
	return headerSize + payloadLen + 4, nil
}

// dictionary builds categorical column i's segment-local dictionary, in
// first-appearance order, and its per-row offsets and local IDs. It keys the
// dictionary by intern ID: names are looked up only for its entries.
func (e *encoder) dictionary(name string, i int, vecs []*feature.Vector) error {
	clear(e.dictIdx)
	e.dict, e.localIDs = e.dict[:0], e.localIDs[:0]
	e.offsets = append(e.offsets[:0], 0)
	for _, v := range vecs {
		if v.Present(i) {
			for _, cat := range v.CategoryList(i) {
				id, ok := e.dictIdx[cat]
				if !ok {
					if len(feature.InternedCategory(cat)) > math.MaxUint16 {
						return fmt.Errorf("disk: feature %q: category longer than %d bytes", name, math.MaxUint16)
					}
					id = uint32(len(e.dict))
					e.dictIdx[cat] = id
					e.dict = append(e.dict, cat)
				}
				e.localIDs = append(e.localIDs, id)
			}
		}
		e.offsets = append(e.offsets, uint32(len(e.localIDs)))
	}
	if len(e.dict) > maxDictEntries {
		return fmt.Errorf("disk: feature %q: dictionary overflows %d entries", name, maxDictEntries)
	}
	if len(e.localIDs) > maxCatIDs {
		return fmt.Errorf("disk: feature %q: category IDs overflow %d", name, maxCatIDs)
	}
	return nil
}

// room returns out with room for n more bytes: when they would not fit, it
// hands out to the bufio.Writer, flushes that, and continues in its free
// space. (A run longer than the whole buffer then grows out past it, which
// bw.Write copies.) A write error is kept by the writer and returned by
// encodeSegment's final Flush.
func (e *encoder) room(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	return e.spill(out) // out of line, so room inlines into the column loops
}

func (e *encoder) spill(out []byte) []byte {
	e.bw.Write(out)
	e.bw.Flush()
	return e.bw.AvailableBuffer()
}

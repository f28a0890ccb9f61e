package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"crossmodal/internal/feature"
)

// Segment is one committed chunk's immutable, mmap-backed segment, rows in
// append order. Row accessors perform no allocations and no copies: they
// decode little-endian values straight out of the mapped payload (asserted
// by AllocsPerRun tests), so scans over millions of rows cost only the
// page-ins.
type Segment struct {
	path    string
	chunk   int
	rows    int
	payload []byte
	cols    []colMeta
	unmap   func() error
}

// openSegment maps and validates one segment file against schema: the
// payload checksum is verified once, here (scans then trust the mapping),
// then the structure — magic, version, schema hash, column bounds,
// dictionary ranges.
func openSegment(path string, schema *feature.Schema, schemaHash uint64) (seg *Segment, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > headerSize+maxPayload+4 {
		return nil, &ErrCorrupt{Path: path, Detail: "file exceeds maximum segment size"}
	}
	if st.Size() == 0 {
		return nil, &ErrCorrupt{Path: path, Detail: "zero-length segment"}
	}
	data, unmap, err := mapFile(f, int(st.Size()))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			unmap()
		}
	}()
	h, err := parseHeader(data)
	if err != nil {
		err.(*ErrCorrupt).Path = path
		return nil, err
	}
	if h.SchemaHash != schemaHash {
		return nil, &ErrCorrupt{Path: path, Detail: "schema hash mismatch"}
	}
	payload := data[headerSize : headerSize+h.PayloadLen]
	want := binary.LittleEndian.Uint32(data[headerSize+h.PayloadLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &ErrCorrupt{Path: path, Detail: "payload CRC mismatch"}
	}
	cols, err := payloadLayout(payload, schema, h.Rows)
	if err != nil {
		err.(*ErrCorrupt).Path = path
		return nil, err
	}
	// Intern each dictionary once, and only now that the file has passed
	// every check: a rejected segment must not grow the process-wide intern
	// table. Row decoding then maps local IDs to intern IDs by index.
	for i := range cols {
		if c := &cols[i]; c.kind == feature.Categorical {
			c.dictIDs = make([]uint32, len(c.dict))
			for k, cat := range c.dict {
				c.dictIDs[k] = feature.InternID(cat)
			}
			c.dict = nil
		}
	}
	return &Segment{
		path:    path,
		chunk:   h.Chunk,
		rows:    h.Rows,
		payload: payload,
		cols:    cols,
		unmap:   unmap,
	}, nil
}

// Close unmaps the segment.
func (s *Segment) Close() error { return s.unmap() }

// Rows returns the segment's row count.
func (s *Segment) Rows() int { return s.rows }

// ID returns row r's point ID.
func (s *Segment) ID(r int) uint64 {
	return binary.LittleEndian.Uint64(s.payload[8*r:])
}

// Label returns row r's stored ground-truth label.
func (s *Segment) Label(r int) int8 {
	return int8(s.payload[8*s.rows+r])
}

// labels copies the label column out of the mapping, in append order.
func (s *Segment) labels() []int8 {
	labels := make([]int8, s.rows)
	for r := range labels {
		labels[r] = s.Label(r)
	}
	return labels
}

// Present reports whether feature col is non-missing on row r.
func (s *Segment) Present(col, r int) bool {
	return s.payload[s.cols[col].pres+r/8]&(1<<(r%8)) != 0
}

// Numeric returns row r's value of numeric feature col with its exact
// written bits. The caller must have checked Present.
func (s *Segment) Numeric(col, r int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(s.payload[s.cols[col].data+8*r:]))
}

// EmbeddingInto appends row r's embedding for feature col to buf and
// returns the extended slice; with sufficient capacity it allocates
// nothing.
func (s *Segment) EmbeddingInto(col, r int, buf []float64) []float64 {
	c := &s.cols[col]
	base := c.data + 8*c.dim*r
	for k := 0; k < c.dim; k++ {
		buf = append(buf, math.Float64frombits(binary.LittleEndian.Uint64(s.payload[base+8*k:])))
	}
	return buf
}

// projection maps a consumer's schema onto a store's columns, so a scan
// decodes straight into the schema its consumer works in (the LF or graph
// sub-schema) and never touches columns that consumer does not read.
type projection struct {
	target *feature.Schema
	cols   []int // per target position: the stored column, or -1 when the store lacks the feature
}

// newProjection matches target features to stored columns by name. A matched
// feature must have the identical definition — decoding a column under
// another kind or dimension would mis-read it — and a feature the store
// lacks stays Missing on every row.
func newProjection(stored, target *feature.Schema) (*projection, error) {
	if target == nil || target.Len() == 0 {
		return nil, fmt.Errorf("disk: projection needs a non-empty target schema")
	}
	p := &projection{target: target, cols: make([]int, target.Len())}
	for j := range p.cols {
		want := target.Def(j)
		i, ok := stored.Index(want.Name)
		switch {
		case !ok:
			p.cols[j] = -1
		case stored.Def(i) != want:
			return nil, fmt.Errorf("disk: feature %q is %+v in the target schema but stored as %+v", want.Name, want, stored.Def(i))
		default:
			p.cols[j] = i
		}
	}
	return p, nil
}

// segColumns is the feature.Columns view of the rows [base, base+rows) of one
// segment under a projection: no row is decoded, every read goes to the
// mapped payload.
type segColumns struct {
	seg        *Segment
	cols       []int // projection.cols
	base, rows int
}

func (c *segColumns) Rows() int     { return c.rows }
func (c *segColumns) Ord(r int) int { return c.base + r }

func (c *segColumns) Present(col, r int) bool {
	sc := c.cols[col]
	return sc >= 0 && c.seg.Present(sc, c.base+r)
}

func (c *segColumns) Num(col, r int) float64 { return c.seg.Numeric(c.cols[col], c.base+r) }

func (c *segColumns) CatIDs(col, r int, buf []uint32) []uint32 {
	if !c.Present(col, r) {
		return buf
	}
	r += c.base
	s, m := c.seg, &c.seg.cols[c.cols[col]]
	le := binary.LittleEndian
	for k, end := le.Uint32(s.payload[m.data+4*r:]), le.Uint32(s.payload[m.data+4*(r+1):]); k < end; k++ {
		buf = append(buf, m.dictIDs[le.Uint32(s.payload[m.ids+4*int(k):])])
	}
	return buf
}

func (c *segColumns) Emb(col, r int, buf []float64) []float64 {
	if !c.Present(col, r) {
		return buf
	}
	return c.seg.EmbeddingInto(c.cols[col], c.base+r, buf)
}

// rowDecoder decodes rows of one segment into vectors of a projection's
// target schema: the one decoder behind ScanProjected and Find.
// ids and emb are scratch one value is gathered in before the vector copies
// it into its payload.
type rowDecoder struct {
	seg  *Segment
	proj *projection
	ids  []uint32
	emb  []float64
}

// rowPayloadSize bounds how many category ID slots and embedding floats
// decoding row r under proj appends to a vector payload, from quantities
// payloadLayout already checked against the bytes present (each projected
// categorical column's monotone offsets, each embedding column's presence
// bit) — never from a length field on its own. The sizes are 64-bit, so a
// caller's sum cannot wrap where an int is 32 bits wide.
func (s *Segment) rowPayloadSize(proj *projection, r int) (cats, embs uint64) {
	le := binary.LittleEndian
	for _, col := range proj.cols {
		if col < 0 {
			continue
		}
		switch c := &s.cols[col]; c.kind {
		case feature.Categorical:
			n := le.Uint32(s.payload[c.data+4*(r+1):]) - le.Uint32(s.payload[c.data+4*r:]) // <= maxCatIDs
			cats += uint64(feature.CategorySlots(int(n)))
		case feature.Embedding:
			if s.Present(col, r) {
				embs += uint64(c.dim)
			}
		}
	}
	return cats, embs
}

// row decodes row r into v, which must be an all-missing vector of the
// projection's target schema. Values are what Vector.Set would have stored:
// exact float bits, categories in written order with duplicates, and the
// intern-ID set mapped from the segment's once-interned dictionary rather
// than looked up per category. A write fails only if v's payload outgrows
// its 32-bit windows.
func (d *rowDecoder) row(r int, v *feature.Vector) error {
	s := d.seg
	le := binary.LittleEndian
	for j, col := range d.proj.cols {
		if col < 0 || !s.Present(col, r) {
			continue
		}
		var err error
		switch c := &s.cols[col]; c.kind {
		case feature.Numeric:
			v.SetNum(j, s.Numeric(col, r))
		case feature.Embedding:
			d.emb = s.EmbeddingInto(col, r, d.emb[:0])
			err = v.SetVec(j, d.emb) // the projection matched this column's Dim
		case feature.Categorical:
			d.ids = d.ids[:0]
			start, end := le.Uint32(s.payload[c.data+4*r:]), le.Uint32(s.payload[c.data+4*(r+1):])
			for k := start; k < end; k++ {
				d.ids = append(d.ids, c.dictIDs[le.Uint32(s.payload[c.ids+4*int(k):])])
			}
			err = v.SetCategoryIDs(j, d.ids)
		}
		if err != nil {
			return &ErrCorrupt{Path: s.path, Detail: err.Error()}
		}
	}
	return nil
}

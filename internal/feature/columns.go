package feature

// Columns is a read-only columnar view of a run of rows: what the LF stages
// (mining's support counting, lf's vote kernel) read instead of one Vector
// per row. col is a position in the schema the view was opened for; a feature
// the backing lacks is never Present. The disk store backs it straight with a
// mapped segment, VectorColumns with in-memory vectors. A view holds no read
// state: any number of goroutines may read it at once.
type Columns interface {
	// Rows returns the number of rows in the view.
	Rows() int
	// Ord returns row r's ordinal within its chunk. The views of one chunk
	// are consecutive runs in order: view k's row r is ordinal base_k + r,
	// and the runs together cover [0, chunk rows) ascending.
	Ord(r int) int
	// Present reports whether row r holds a value in col.
	Present(col, r int) bool
	// Num returns row r's value in numeric column col; the caller has checked
	// Present and that the schema defines col as Numeric.
	Num(col, r int) float64
	// CatIDs appends to buf the intern IDs of row r's categories in
	// categorical column col — in no particular order, repeats allowed,
	// nothing when the value is missing — and returns the extended slice.
	CatIDs(col, r int, buf []uint32) []uint32
}

// ViewRows is how many rows one column view of a chunk covers, in
// VectorColumns and in the disk store's ScanColumns: enough views for a
// chunk's kernels to spread over the workers, few enough that the per-view
// cost stays invisible.
const ViewRows = 512

// vecColumns is the Columns view of a run of vectors, addressed under schema.
type vecColumns struct {
	schema *Schema
	vecs   []*Vector
	base   int // ordinal of vecs[0]
	// cols maps schema positions onto src, the first vector's schema (-1:
	// absent); a vector under another schema is matched by name per read.
	src  *Schema
	cols []int
}

// VectorColumns adapts vecs, one chunk in order, to column views under
// schema. The vectors keep their own schema: positions are matched by name,
// so nothing is reprojected or copied.
func VectorColumns(schema *Schema, vecs []*Vector) []Columns {
	if len(vecs) == 0 {
		return nil
	}
	src := vecs[0].schema
	cols := make([]int, schema.Len())
	for j := range cols {
		i, ok := src.index[schema.defs[j].Name]
		if !ok {
			i = -1
		}
		cols[j] = i
	}
	views := make([]vecColumns, (len(vecs)+ViewRows-1)/ViewRows)
	parts := make([]Columns, len(views))
	for p := range views {
		lo := p * ViewRows
		views[p] = vecColumns{schema: schema, vecs: vecs[lo:min(lo+ViewRows, len(vecs))], base: lo, src: src, cols: cols}
		parts[p] = &views[p]
	}
	return parts
}

// cell returns row r's vector and the position col has in its schema (-1:
// the vector's schema lacks the feature).
func (c *vecColumns) cell(col, r int) (*Vector, int) {
	v := c.vecs[r]
	if v.schema == c.src {
		return v, c.cols[col]
	}
	if i, ok := v.schema.index[c.schema.defs[col].Name]; ok {
		return v, i
	}
	return v, -1
}

func (c *vecColumns) Rows() int     { return len(c.vecs) }
func (c *vecColumns) Ord(r int) int { return c.base + r }

func (c *vecColumns) Present(col, r int) bool {
	v, i := c.cell(col, r)
	return i >= 0 && v.Present(i)
}

func (c *vecColumns) Num(col, r int) float64 {
	v, i := c.cell(col, r)
	if i < 0 {
		return 0
	}
	return v.Num(i)
}

func (c *vecColumns) CatIDs(col, r int, buf []uint32) []uint32 {
	v, i := c.cell(col, r)
	if i < 0 {
		return buf
	}
	return append(buf, v.CategoryIDs(i)...)
}

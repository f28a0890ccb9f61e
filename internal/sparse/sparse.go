// Package sparse holds the one input representation of the model engines: a
// block of design rows in compressed-sparse-row form. The vectorizer emits
// it (a one-hot row is 431 wide and carries ~28 non-zeros), the trainer and
// the inference engines iterate its entries, and dense callers convert
// through AddDense. A dense input is simply the row whose entries are every
// column.
package sparse

import (
	"fmt"
	"slices"
)

// Rows is a CSR block: row i's entries are Cols[Ptr[i]:Ptr[i+1]] (strictly
// ascending column indices below Width) with values Vals[Ptr[i]:Ptr[i+1]].
// Build one with Reset, then Add / OneHot / EndRow per row (or AddDense);
// the buffers grow monotonically, so a reused block stops allocating.
type Rows struct {
	Width int
	Ptr   []int
	Cols  []int32
	Vals  []float64
}

// Reset empties the block for rows of the given width, keeping capacity.
func (r *Rows) Reset(width int) {
	r.Width = width
	r.Ptr = append(r.Ptr[:0], 0)
	r.Cols = r.Cols[:0]
	r.Vals = r.Vals[:0]
}

// Len returns the number of closed rows.
func (r *Rows) Len() int { return max(len(r.Ptr)-1, 0) }

// Row returns row i's columns and values as views into the block.
func (r *Rows) Row(i int) ([]int32, []float64) {
	lo, hi := r.Ptr[i], r.Ptr[i+1]
	return r.Cols[lo:hi], r.Vals[lo:hi]
}

// Add appends one entry to the open row unless v is zero: a zero term adds
// ±0 to every sum it would enter, so dropping it changes no result. Callers
// add columns in ascending order.
func (r *Rows) Add(col int, v float64) {
	if v != 0 {
		r.Cols = append(r.Cols, int32(col))
		r.Vals = append(r.Vals, v)
	}
}

// OneHot closes a run of one-hot columns the caller appended to Cols since
// index from, in any order and possibly repeated: it sorts the run, drops
// duplicates, and gives every surviving column the value 1.
func (r *Rows) OneHot(from int) {
	run := r.Cols[from:]
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j] < run[j-1]; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
	n := 0
	for i, c := range run {
		if i == 0 || c != run[n-1] {
			run[n] = c
			n++
		}
	}
	r.Cols = r.Cols[:from+n]
	for ; n > 0; n-- {
		r.Vals = append(r.Vals, 1)
	}
}

// EndRow closes the open row.
func (r *Rows) EndRow() { r.Ptr = append(r.Ptr, len(r.Cols)) }

// AddDense appends x as one closed row holding its non-zeros. It panics if
// len(x) is not the block's width — a programming error. The scan writes
// every element and advances only past non-zeros: no branch to mispredict.
func (r *Rows) AddDense(x []float64) {
	if len(x) != r.Width {
		panic(fmt.Sprintf("sparse: row width %d, want %d", len(x), r.Width))
	}
	k := len(r.Cols)
	cols := slices.Grow(r.Cols, len(x))[:k+len(x)]
	vals := slices.Grow(r.Vals, len(x))[:k+len(x)]
	for i, v := range x {
		cols[k], vals[k] = int32(i), v
		if v != 0 {
			k++
		}
	}
	r.Cols, r.Vals = cols[:k], vals[:k]
	r.EndRow()
}

// Scatter writes row i's entries into the dense row dst, which the caller
// has zeroed and sized to Width.
func (r *Rows) Scatter(i int, dst []float64) {
	cols, vals := r.Row(i)
	for k, c := range cols {
		dst[c] = vals[k]
	}
}

// Validate checks a caller-built block once, so the engines' inner loops
// need no checks: row pointers start at 0, never decrease and end at the
// entry count; every row's columns are strictly ascending and below Width.
func (r *Rows) Validate() error {
	if r.Width <= 0 {
		return fmt.Errorf("sparse: width must be positive, got %d", r.Width)
	}
	if len(r.Cols) != len(r.Vals) {
		return fmt.Errorf("sparse: %d columns vs %d values", len(r.Cols), len(r.Vals))
	}
	if len(r.Ptr) == 0 || r.Ptr[0] != 0 || r.Ptr[len(r.Ptr)-1] != len(r.Cols) {
		return fmt.Errorf("sparse: row pointers must run from 0 to %d entries", len(r.Cols))
	}
	for i := 0; i < r.Len(); i++ {
		lo, hi := r.Ptr[i], r.Ptr[i+1]
		if lo > hi || hi > len(r.Cols) {
			return fmt.Errorf("sparse: row %d pointers [%d, %d) are not monotone", i, lo, hi)
		}
		for k := lo; k < hi; k++ {
			if c := r.Cols[k]; c < 0 || int(c) >= r.Width || (k > lo && c <= r.Cols[k-1]) {
				return fmt.Errorf("sparse: row %d column %d out of range or not ascending (width %d)", i, c, r.Width)
			}
		}
	}
	return nil
}

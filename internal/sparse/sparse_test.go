package sparse

import (
	"reflect"
	"testing"
)

func TestBuildAndRead(t *testing.T) {
	var r Rows
	if r.Len() != 0 {
		t.Fatalf("zero block has %d rows", r.Len())
	}
	r.Reset(6)
	r.AddDense([]float64{0, 2, 0, 0, -1, 0})
	r.EndRow() // an all-zero row
	r.Add(0, 3)
	from := len(r.Cols)
	r.Cols = append(r.Cols, 5, 2, 5, 3, 2) // one-hot run: unsorted, repeated
	r.OneHot(from)
	r.EndRow()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	want := [][]float64{{0, 2, 0, 0, -1, 0}, {0, 0, 0, 0, 0, 0}, {3, 0, 1, 1, 0, 1}}
	for i, w := range want {
		got := make([]float64, 6)
		r.Scatter(i, got)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("row %d scatters %v, want %v", i, got, w)
		}
	}
	if cols, vals := r.Row(2); !reflect.DeepEqual(cols, []int32{0, 2, 3, 5}) || !reflect.DeepEqual(vals, []float64{3, 1, 1, 1}) {
		t.Errorf("row 2 = %v %v", cols, vals)
	}

	// Append concatenates blocks; Reset keeps capacity and starts over.
	var both Rows
	both.Reset(6)
	both.Append(&r)
	both.Append(&r)
	if err := both.Validate(); err != nil {
		t.Fatal(err)
	}
	if both.Len() != 6 {
		t.Fatalf("appended block has %d rows, want 6", both.Len())
	}
	for i := 0; i < 6; i++ {
		gc, gv := both.Row(i)
		wc, wv := r.Row(i % 3)
		if len(gc) != len(wc) || (len(gc) > 0 && (!reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gv, wv))) {
			t.Errorf("appended row %d = %v %v, want %v %v", i, gc, gv, wc, wv)
		}
	}
	both.Reset(2)
	if both.Len() != 0 || both.Width != 2 || cap(both.Cols) == 0 {
		t.Errorf("Reset left %d rows, width %d, cap %d", both.Len(), both.Width, cap(both.Cols))
	}
}

func TestAddDensePanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddDense accepted a row of the wrong width")
		}
	}()
	var r Rows
	r.Reset(3)
	r.AddDense([]float64{1, 2})
}

func TestValidateRejects(t *testing.T) {
	for name, r := range map[string]*Rows{
		"zero width":        {Width: 0, Ptr: []int{0}},
		"no pointers":       {Width: 3},
		"first pointer":     {Width: 3, Ptr: []int{1, 1}, Cols: []int32{0}, Vals: []float64{1}},
		"last pointer":      {Width: 3, Ptr: []int{0, 1}, Cols: []int32{0, 1}, Vals: []float64{1, 1}},
		"pointers decrease": {Width: 3, Ptr: []int{0, 2, 1, 2}, Cols: []int32{0, 1}, Vals: []float64{1, 1}},
		"pointer overrun":   {Width: 3, Ptr: []int{0, 5, 2}, Cols: []int32{0, 1}, Vals: []float64{1, 1}},
		"values short":      {Width: 3, Ptr: []int{0, 2}, Cols: []int32{0, 1}, Vals: []float64{1}},
		"column too big":    {Width: 3, Ptr: []int{0, 1}, Cols: []int32{3}, Vals: []float64{1}},
		"column negative":   {Width: 3, Ptr: []int{0, 1}, Cols: []int32{-1}, Vals: []float64{1}},
		"unsorted":          {Width: 3, Ptr: []int{0, 2}, Cols: []int32{2, 1}, Vals: []float64{1, 1}},
		"repeated":          {Width: 3, Ptr: []int{0, 2}, Cols: []int32{1, 1}, Vals: []float64{1, 1}},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := &Rows{Width: 3, Ptr: []int{0, 0, 2}, Cols: []int32{0, 2}, Vals: []float64{1, 0}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
}

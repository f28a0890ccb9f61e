package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"crossmodal/internal/feature"
	"crossmodal/internal/featurestore/disk"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/monitor"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
)

// TestHotPathCreatesNoCategoryString: a category crosses the curation's hot
// path as its intern ID. Over a library of only the categorical services,
// featurizing a batch into fresh slabs, vectorizing it, appending it to a
// segment and taking its categorical snapshot each allocate — beyond the
// cells and vector headers featurizing must make — fewer bytes per category
// value than one string header: a stage that stored or materialized a name
// per value would need at least that.
func TestHotPathCreatesNoCategoryString(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates where a plain build does not")
	}
	std, ds := testEnv(t)
	var cats []resource.Resource
	for _, r := range std.Resources() {
		if r.Def().Kind == feature.Categorical {
			cats = append(cats, r)
		}
	}
	lib, err := resource.NewLibrary(std.World(), cats...)
	if err != nil {
		t.Fatal(err)
	}
	pts := append(append([]*synth.Point(nil), ds.LabeledText...), ds.UnlabeledImage...)
	pts = pts[:min(len(pts), 1024)]
	ctx, serial := context.Background(), mapreduce.Config{Workers: 1}

	warm, err := lib.Featurize(ctx, serial, pts)
	if err != nil {
		t.Fatal(err)
	}
	vz := feature.FitVectorizer(lib.Schema(), warm)
	var enc feature.Encoder
	vz.Encode(&enc, warm)
	store, err := disk.Open(t.TempDir(), lib.Schema(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ids, labels := make([]int, len(pts)), make([]int8, len(pts))
	for r, p := range pts {
		ids[r] = p.ID
	}
	if err := store.AppendChunk(ctx, ids, labels, warm); err != nil {
		t.Fatal(err)
	}
	monitor.CategoricalSnapshot(warm)

	values := 0
	for _, v := range warm {
		for i := 0; i < v.Schema().Len(); i++ {
			values += len(v.CategoryList(i))
		}
	}
	if values < 4*len(pts) {
		t.Fatalf("%d category values over %d points: the batch exercises too little", values, len(pts))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	// 16 bytes a cell (TestCellLayout), one cell per feature per vector.
	fixed := float64(len(pts)) * float64(unsafe.Sizeof(feature.Vector{})+unsafe.Sizeof(&feature.Vector{})+16*uintptr(lib.Schema().Len()))
	var vecs []*feature.Vector
	stages := []struct {
		name  string
		fixed float64
		fn    func()
	}{
		{"featurize", fixed, func() { vecs, err = lib.Featurize(ctx, serial, pts) }},
		{"vectorize", 0, func() { vz.Encode(&enc, vecs) }},
		{"segment encode", 0, func() { err = store.AppendChunk(ctx, ids, labels, vecs) }},
		{"snapshot", 0, func() { monitor.CategoricalSnapshot(vecs) }},
	}
	const stringHeader = float64(unsafe.Sizeof(""))
	for _, st := range stages {
		b := allocated(st.fn)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if per := (b - st.fixed) / float64(values); per >= stringHeader {
			t.Errorf("%s allocates %.1f B per category value beyond its fixed %.0f B (%.0f B over %d values), want < %.0f",
				st.name, per, st.fixed, b, values, stringHeader)
		}
	}
}

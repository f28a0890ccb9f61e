package resource

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

// The reference featurization: the six Observe bodies as they stood when a
// service returned a feature.Value per observation — a string formatted or
// looked up per category, a []string per categorical value, a []float64 per
// embedding — and the library copied the Values into a vector. The services
// now write typed cells with table IDs straight into the destination; these
// pin that they draw the same RNG sequence and land the same bits.

func refObserve(r Resource, e *synth.Entity, m synth.Modality, rng *rand.Rand) feature.Value {
	switch s := r.(type) {
	case *CategoryService:
		p := s.params[channelOf(m)]
		if rng.Float64() < p.Dropout {
			return feature.MissingValue()
		}
		idx := s.extract(e)
		if rng.Float64() >= p.Fidelity && s.n > 1 {
			switch {
			case p.ConfusionShift > 0 && rng.Float64() < 0.5:
				idx = (idx + p.ConfusionShift) % s.n
			case s.errorDist[channelOf(m)] != nil:
				idx = sampleIndex(rng, s.errorDist[channelOf(m)])
			default:
				idx = (idx + 1 + rng.Intn(s.n-1)) % s.n
			}
		}
		return feature.CategoricalValue(fmt.Sprintf("%s%d", s.names.prefix, idx))
	case *SetService:
		p := s.params[channelOf(m)]
		if rng.Float64() < p.Dropout {
			return feature.MissingValue()
		}
		var cats []string
		for _, idx := range s.extract(e) {
			if rng.Float64() < p.Fidelity {
				cats = append(cats, fmt.Sprintf("%s%d", s.names.prefix, idx))
			}
		}
		if rng.Float64() < p.FalsePositive {
			cats = append(cats, fmt.Sprintf("%s%d", s.names.prefix, rng.Intn(s.n)))
		}
		return feature.CategoricalValue(cats...)
	case *BucketService:
		p := s.params[channelOf(m)]
		if rng.Float64() < p.Dropout {
			return feature.MissingValue()
		}
		v := s.extract(s.world, e) + rng.NormFloat64()*p.Noise
		i := 0
		for i < len(s.cuts) && v >= s.cuts[i] {
			i++
		}
		return feature.CategoricalValue(s.names.names[i])
	case *StatService:
		p := s.params[channelOf(m)]
		if rng.Float64() < p.Dropout {
			return feature.MissingValue()
		}
		return feature.NumericValue(s.extract(s.world, e) + rng.NormFloat64()*p.Noise)
	case *RuleService:
		p := s.params[channelOf(m)]
		if rng.Float64() < p.Dropout {
			return feature.MissingValue()
		}
		fired := s.predicate(s.world, e)
		if rng.Float64() >= p.Fidelity {
			fired = !fired
		}
		if fired {
			return feature.CategoricalValue("fired")
		}
		return feature.CategoricalValue("quiet")
	case *EmbeddingService:
		dim := s.def.Dim
		vec := make([]float64, dim)
		copy(vec, s.world.TopicEmbedding(e.Topic))
		for i := range vec {
			vec[i] *= 0.8
		}
		for _, o := range e.Objects {
			oe := s.world.ObjectEmbedding(o)
			for i := range vec {
				vec[i] += 0.8 * oe[i] / float64(len(e.Objects))
			}
		}
		for i := range vec {
			vec[i] += rng.NormFloat64() * s.noise
		}
		return feature.EmbeddingValue(vec)
	}
	panic(fmt.Sprintf("refObserve: no reference for %T", r))
}

// refObservePoint is observePoint as it was: reseed by channel name (one FNV
// pass per observation), observe, or merge the frames of a video point.
func refObservePoint(r Resource, p *synth.Point, rng *rand.Rand) feature.Value {
	d := r.Def()
	if p.Modality != synth.Video {
		p.SeedObservation(rng, d.Name)
		return refObserve(r, p.Entity, p.Modality, rng)
	}
	frames := max(p.Frames, 1)
	frame := func(f int) feature.Value {
		p.SeedFrame(rng, d.Name, f)
		return refObserve(r, p.Entity, synth.Image, rng)
	}
	switch d.Kind {
	case feature.Categorical:
		seen := make(map[string]bool)
		any := false
		for f := 0; f < frames; f++ {
			if val := frame(f); !val.Missing {
				any = true
				for _, c := range val.Categories {
					seen[c] = true
				}
			}
		}
		if !any {
			return feature.MissingValue()
		}
		cats := make([]string, 0, len(seen))
		for c := range seen {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		return feature.CategoricalValue(cats...)
	case feature.Numeric:
		var sum float64
		n := 0
		for f := 0; f < frames; f++ {
			if val := frame(f); !val.Missing {
				sum += val.Num
				n++
			}
		}
		if n == 0 {
			return feature.MissingValue()
		}
		return feature.NumericValue(sum / float64(n))
	default:
		acc := make([]float64, d.Dim)
		n := 0
		for f := 0; f < frames; f++ {
			val := frame(f)
			if val.Missing || len(val.Vec) != d.Dim {
				continue
			}
			for i, x := range val.Vec {
				acc[i] += x
			}
			n++
		}
		if n == 0 {
			return feature.MissingValue()
		}
		for i := range acc {
			acc[i] /= float64(n)
		}
		return feature.EmbeddingValue(acc)
	}
}

// refFeaturizePoint is FeaturizePoint as it was, Library.vector included: one
// Value per resource, copied into a vector whose payload is sized once.
func refFeaturizePoint(l *Library, p *synth.Point) *feature.Vector {
	rng := xrand.New(0)
	vals := make([]feature.Value, 0, len(l.resources))
	for _, r := range l.resources {
		val := feature.MissingValue()
		if Applicable(r, p) {
			val = refObservePoint(r, p, rng)
		}
		vals = append(vals, val)
	}
	var cats, embs int
	for i := range vals {
		cats += len(vals[i].Categories)
		embs += len(vals[i].Vec)
	}
	v := feature.NewVector(l.schema)
	v.Grow(cats, embs)
	for i := range vals {
		v.MustSetAt(i, vals[i])
	}
	return v
}

// sameVector fails unless got holds exactly want: Equal (presence, float
// bits, categories in order), and cell by cell what Equal does not look at —
// the Value At builds and the sorted intern-ID sets the kernels intersect.
func sameVector(t testing.TB, where string, got, want *feature.Vector) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: direct write %v, reference %v", where, got, want)
	}
	for i := 0; i < want.Schema().Len(); i++ {
		g, w := got.At(i), want.At(i)
		bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if g.Missing != w.Missing || !bits(g.Num, w.Num) || !slices.Equal(g.Categories, w.Categories) ||
			(g.Categories == nil) != (w.Categories == nil) || !slices.EqualFunc(g.Vec, w.Vec, bits) {
			t.Fatalf("%s: feature %q At = %+v, reference %+v", where, want.Schema().Def(i).Name, g, w)
		}
		if !slices.Equal(got.CategoryIDs(i), want.CategoryIDs(i)) {
			t.Fatalf("%s: feature %q CategoryIDs = %v, reference %v", where, want.Schema().Def(i).Name, got.CategoryIDs(i), want.CategoryIDs(i))
		}
	}
}

// refPoints samples n points of each of text, image and video.
func refPoints(t testing.TB, lib *Library, n int, seed int64) []*synth.Point {
	t.Helper()
	task, _ := synth.TaskByName("CT1")
	if err := task.Calibrate(lib.World(), 2000, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := synth.BuildDataset(lib.World(), task, synth.DatasetConfig{
		Seed: seed, NumText: n, NumUnlabeledImage: n, NumHandLabelPool: 1, NumTest: 1, CalibrationSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := append(append([]*synth.Point{}, ds.LabeledText...), ds.UnlabeledImage...)
	return append(pts, synth.SampleVideo(lib.World(), task, n, 3, seed+1)...)
}

// TestDirectWriteMatchesReference: every StandardLibrary service, through
// every modality, over thousands of seeded points, writes the cell the
// reference's returned Value would have been copied to — per service through
// observeInto (one service call on a generator of its own) and per point
// through FeaturizePoint.
func TestDirectWriteMatchesReference(t *testing.T) {
	lib := testLibrary(t)
	n := 2000
	if testing.Short() {
		n = 200
	}
	rng := xrand.New(0)
	present := make([]int, lib.schema.Len())
	for _, p := range refPoints(t, lib, n, 71) {
		where := fmt.Sprintf("%s point %d", p.Modality, p.ID)
		sameVector(t, where, lib.FeaturizePoint(p), refFeaturizePoint(lib, p))
		for i, r := range lib.resources {
			if !Applicable(r, p) {
				continue
			}
			one, ref := feature.NewVector(lib.schema), feature.NewVector(lib.schema)
			observeInto(one, i, r, lib.hashes[i], p, xrand.New(0))
			ref.MustSetAt(i, refObservePoint(r, p, rng))
			sameVector(t, where+" "+r.Def().Name, one, ref)
			// A video point's frames give their payload room back: the
			// vector keeps only the merged value.
			if cats, embs := one.PayloadLen(); cats != len(one.Categories(i)) || embs != len(one.Vec(i)) {
				t.Fatalf("%s %s: payload holds %d categories / %d floats for a value of %d / %d",
					where, r.Def().Name, cats, embs, len(one.Categories(i)), len(one.Vec(i)))
			}
			if one.Present(i) {
				present[i]++
			}
		}
	}
	for i, c := range present {
		if c == 0 {
			t.Errorf("service %q never produced a value: nothing compared", lib.schema.Def(i).Name)
		}
	}
}

// FuzzFeaturizeMatchesReference: random entity fields and seeds through the
// whole library, including a category service whose extract strays past its
// name table (the value is formatted and interned on the spot).
func FuzzFeaturizeMatchesReference(f *testing.F) {
	w := synth.MustWorld(synth.DefaultConfig())
	std, err := StandardLibrary(w)
	if err != nil {
		f.Fatal(err)
	}
	cfg := w.Config()
	both := map[synth.Modality]ObsParams{
		synth.Text:  {Fidelity: 0.7, Dropout: 0.1, FalsePositive: 0.3},
		synth.Image: {Fidelity: 0.5, Dropout: 0.2, FalsePositive: 0.5, ConfusionShift: 3},
	}
	stray := NewCategoryService(feature.Def{Name: "stray", Set: SetA}, 4, "s", textImage, both,
		func(e *synth.Entity) int { return e.ID%9 - 2 }) // -2..6 over a table of 4
	straySet := NewSetService(feature.Def{Name: "stray_set", Set: SetA}, 4, "ss", textImage, both,
		func(e *synth.Entity) []int { return []int{e.ID % 7, -1, e.Topic} })
	lib, err := NewLibrary(w, append(std.Resources(), stray, straySet)...)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), int64(0), uint8(0), uint8(3), uint16(5), uint16(7), uint16(9), 0.3)
	f.Add(uint64(99), int64(-4), uint8(1), uint8(200), uint16(0), uint16(0), uint16(0), -2.5)
	f.Add(^uint64(0), int64(6), uint8(2), uint8(23), uint16(79), uint16(39), uint16(1499), 40.0)
	f.Fuzz(func(t *testing.T, seed uint64, id int64, mod, topic uint8, kw, obj, user uint16, eps float64) {
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 0
		}
		e := &synth.Entity{
			ID:       int(id % 1000),
			Topic:    int(topic) % cfg.NumTopics,
			User:     int(user) % cfg.NumUsers,
			URLGroup: int(kw) % cfg.NumURLGroups,
			Eps:      eps,
			Objects:  []int{int(obj) % cfg.NumObjects},
			Keywords: []int{int(kw) % cfg.NumKeywords},
		}
		for k := 1; k <= int(obj)%3; k++ {
			e.Objects = append(e.Objects, (int(obj)+7*k)%cfg.NumObjects)
		}
		for k := 1; k <= int(kw)%4; k++ {
			e.Keywords = append(e.Keywords, (int(kw)+11*k)%cfg.NumKeywords)
		}
		p := &synth.Point{ID: e.ID, Entity: e, Seed: seed, Modality: []synth.Modality{synth.Text, synth.Image, synth.Video}[mod%3]}
		if p.Modality == synth.Video {
			p.Frames = 1 + int(topic)%4
		}
		want := refFeaturizePoint(lib, p)
		sameVector(t, "FeaturizePoint", lib.FeaturizePoint(p), want)
		vecs, err := lib.Featurize(context.Background(), mapreduce.Config{Workers: 1}, []*synth.Point{p, p, p})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range vecs {
			sameVector(t, fmt.Sprintf("Featurize[%d]", k), v, want)
		}
	})
}

// TestSlabFeaturizeMatchesPerPoint: the block slabs of Featurize hold, vector
// for vector, what FeaturizePoint builds alone, at any worker count and at
// the lengths around a request's block boundaries — fresh, and refilled
// through one Batch. Each length featurizes the last n of the shuffled text,
// image and video points, so a refilled slab row held another point before
// (often of another modality) and a cell its reset left behind shows.
func TestSlabFeaturizeMatchesPerPoint(t *testing.T) {
	lib := testLibrary(t)
	pts := refPoints(t, lib, 342, 5) // 342 each of text, image, video: 1026 mixed points
	rand.New(rand.NewSource(3)).Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
	want := make([]*feature.Vector, len(pts))
	for i, p := range pts {
		want[i] = lib.FeaturizePoint(p)
	}
	for _, workers := range []int{1, 2, 8} {
		var batch Batch
		for _, n := range []int{0, 1, 1025, 1023, 1025} {
			off := len(pts) - n
			for _, b := range []*Batch{nil, &batch} {
				got, err := lib.FeaturizeInto(context.Background(), mapreduce.Config{Workers: workers}, pts[off:], b)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("workers=%d n=%d: %d vectors", workers, n, len(got))
				}
				for i := range got {
					sameVector(t, fmt.Sprintf("workers=%d n=%d reused=%v vector %d", workers, n, b != nil, i), got[i], want[off+i])
				}
			}
		}
	}
}

// TestFeaturizeAllocsPerBlock: a batch costs a fixed handful of objects per
// block a worker claims — the slab's vectors, cells, payload and its three
// arrays, one generator — and none per point; a Batch that has held one
// batch refills it with none per block.
func TestFeaturizeAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	lib := testLibrary(t)
	all := refPoints(t, lib, 4096, 9)
	for name, pts := range map[string][]*synth.Point{"text": all[:4096], "image": all[4096:8192]} {
		const blocks = 4096 / 64 // serial: blockLen(4096, 1) is the 64-point cap
		got := testing.AllocsPerRun(5, func() {
			if _, err := lib.Featurize(context.Background(), mapreduce.Config{Workers: 1}, pts); err != nil {
				t.Fatal(err)
			}
		})
		if perBlock := (got - 1) / blocks; perBlock > 8 { // 1: the output slice
			t.Errorf("%s: %v allocations for %d points in %d blocks: %.1f per block, want <= 8 (and so none per point)",
				name, got, len(pts), blocks, perBlock)
		}
		var b Batch
		got = testing.AllocsPerRun(5, func() { // AllocsPerRun's warm-up call fills b
			if _, err := lib.FeaturizeInto(context.Background(), mapreduce.Config{Workers: 1}, pts, &b); err != nil {
				t.Fatal(err)
			}
		})
		if got > 8 { // what remains is the job's own bookkeeping, once per batch
			t.Errorf("%s: refilling a Batch made %v allocations for %d blocks, want <= 8 (and so none per block)", name, got, blocks)
		}
	}
}

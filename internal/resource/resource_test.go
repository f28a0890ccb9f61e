package resource

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"crossmodal/internal/feature"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/synth"
	"crossmodal/internal/xrand"
)

func testWorld(t *testing.T) *synth.World {
	t.Helper()
	return synth.MustWorld(synth.DefaultConfig())
}

func testLibrary(t *testing.T) *Library {
	t.Helper()
	w := testWorld(t)
	lib, err := StandardLibrary(w)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func testDataset(t *testing.T, n int) (*Library, []*synth.Point) {
	t.Helper()
	lib := testLibrary(t)
	task, _ := synth.TaskByName("CT1")
	ds, err := synth.BuildDataset(lib.World(), task, synth.DatasetConfig{
		Seed: 5, NumText: n, NumUnlabeledImage: n, NumHandLabelPool: 1, NumTest: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib, append(ds.LabeledText, ds.UnlabeledImage...)
}

func TestStandardLibrarySchema(t *testing.T) {
	lib := testLibrary(t)
	s := lib.Schema()
	// 15 organizational services (A:3, B:2, C:5, D:5) + 3 image + 2 text.
	if got := s.Sets(ABCD...).Len(); got != 15 {
		t.Errorf("ABCD features = %d, want 15", got)
	}
	if got := s.Sets(ImageSet).Len(); got != 3 {
		t.Errorf("image features = %d, want 3", got)
	}
	if got := s.Sets(TextSet).Len(); got != 3 {
		t.Errorf("text features = %d, want 3", got)
	}
	nonservable := s.Len() - s.Servable().Len()
	if nonservable != 1 {
		t.Errorf("nonservable features = %d, want 1 (user_reports)", nonservable)
	}
}

func TestFeaturizePointModalitySupport(t *testing.T) {
	lib, pts := testDataset(t, 50)
	for _, p := range pts {
		v := lib.FeaturizePoint(p)
		imgVal := v.Get("img_embedding")
		textVal := v.Get("text_wordcount")
		switch p.Modality {
		case synth.Text:
			if !imgVal.Missing {
				t.Fatal("text point has image embedding")
			}
		case synth.Image:
			if !textVal.Missing {
				t.Fatal("image point has text feature")
			}
			if imgVal.Missing {
				// Embedding service never drops out.
				t.Fatal("image point missing embedding")
			}
		}
	}
}

func TestFeaturizeDeterministic(t *testing.T) {
	lib, pts := testDataset(t, 20)
	for _, p := range pts {
		a := lib.FeaturizePoint(p)
		b := lib.FeaturizePoint(p)
		if a.String() != b.String() {
			t.Fatalf("featurization not deterministic for point %d:\n%s\n%s", p.ID, a, b)
		}
	}
}

func TestFeaturizeParallelMatchesSerial(t *testing.T) {
	lib, pts := testDataset(t, 64)
	par, err := lib.Featurize(context.Background(), mapreduce.Config{Workers: 8}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if got, want := par[i].String(), lib.FeaturizePoint(p).String(); got != want {
			t.Fatalf("point %d: parallel %s != serial %s", p.ID, got, want)
		}
	}
}

func TestContentServiceFidelity(t *testing.T) {
	lib, pts := testDataset(t, 2000)
	accOf := func(feat string) map[synth.Modality]float64 {
		correctByMod := map[synth.Modality][2]int{}
		for _, p := range pts {
			v := lib.FeaturizePoint(p).Get(feat)
			if v.Missing {
				continue
			}
			counts := correctByMod[p.Modality]
			counts[1]++
			if v.HasCategory("t" + itoa(p.Entity.Topic)) {
				counts[0]++
			}
			correctByMod[p.Modality] = counts
		}
		out := map[synth.Modality]float64{}
		for m, c := range correctByMod {
			out[m] = float64(c[0]) / float64(c[1])
		}
		return out
	}
	// The flagship topic model is near parity across modalities; the
	// page-content categorizer favors text.
	topic := accOf("topic")
	if math.Abs(topic[synth.Text]-0.85) > 0.05 {
		t.Errorf("text topic accuracy %.3f, want ≈0.85", topic[synth.Text])
	}
	if math.Abs(topic[synth.Text]-topic[synth.Image]) > 0.08 {
		t.Errorf("topic service should be near parity: text %.3f vs image %.3f",
			topic[synth.Text], topic[synth.Image])
	}
	page := accOf("page_category")
	if !(page[synth.Text] > page[synth.Image]) {
		t.Errorf("page_category should be more reliable on text: %.3f vs %.3f",
			page[synth.Text], page[synth.Image])
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

func TestObjectsServiceFavorsImages(t *testing.T) {
	lib, pts := testDataset(t, 2000)
	recall := map[synth.Modality][2]int{}
	for _, p := range pts {
		v := lib.FeaturizePoint(p).Get("objects")
		if v.Missing {
			continue
		}
		c := recall[p.Modality]
		for _, o := range p.Entity.Objects {
			c[1]++
			if v.HasCategory("obj" + itoa(o)) {
				c[0]++
			}
		}
		recall[p.Modality] = c
	}
	textR := float64(recall[synth.Text][0]) / float64(recall[synth.Text][1])
	imgR := float64(recall[synth.Image][0]) / float64(recall[synth.Image][1])
	if !(imgR > textR) {
		t.Errorf("object detection should favor images: text %.3f vs image %.3f", textR, imgR)
	}
}

func TestStatServiceTracksAggregate(t *testing.T) {
	lib, pts := testDataset(t, 500)
	w := lib.World()
	var sumErr float64
	n := 0
	for _, p := range pts {
		v := lib.FeaturizePoint(p).Get("user_reports")
		if v.Missing {
			continue
		}
		sumErr += math.Abs(v.Num - w.UserReports(p.Entity.User))
		n++
	}
	if n == 0 {
		t.Fatal("user_reports always missing")
	}
	if mean := sumErr / float64(n); mean > 1 {
		t.Errorf("mean |obs - true| = %.3f, want < 1 (noise 0.4)", mean)
	}
}

func TestVideoFrameMerging(t *testing.T) {
	lib := testLibrary(t)
	task, _ := synth.TaskByName("CT1")
	if err := task.Calibrate(lib.World(), 2000, 1); err != nil {
		t.Fatal(err)
	}
	vids := synth.SampleVideo(lib.World(), task, 30, 5, 3)
	for _, p := range vids {
		v := lib.FeaturizePoint(p)
		if v.Get("text_wordcount").Missing == false {
			t.Fatal("video point has text-only feature")
		}
		if v.Get("img_embedding").Missing {
			t.Fatal("video point missing merged embedding")
		}
		if v.Get("topic").Missing {
			t.Fatal("video point missing topic (5 frames should rarely all drop)")
		}
	}
	// More frames give the set service more chances: union recall for
	// video should beat single images.
	single := synth.SampleVideo(lib.World(), task, 200, 1, 4)
	multi := synth.SampleVideo(lib.World(), task, 200, 6, 4)
	rec := func(pts []*synth.Point) float64 {
		hit, tot := 0, 0
		for _, p := range pts {
			v := lib.FeaturizePoint(p).Get("objects")
			for _, o := range p.Entity.Objects {
				tot++
				if v.HasCategory("obj" + itoa(o)) {
					hit++
				}
			}
		}
		return float64(hit) / float64(tot)
	}
	if r1, r6 := rec(single), rec(multi); !(r6 > r1) {
		t.Errorf("multi-frame union recall %.3f should beat single-frame %.3f", r6, r1)
	}
}

func TestNewLibraryRejectsDuplicates(t *testing.T) {
	w := testWorld(t)
	svc := NewStatService(feature.Def{Name: "dup", Set: "X", Servable: true}, w, textImage, nil,
		func(*synth.World, *synth.Entity) float64 { return 0 })
	if _, err := NewLibrary(w, svc, svc); err == nil {
		t.Error("expected duplicate-name error")
	}
}

func TestBucketServiceValidation(t *testing.T) {
	w := testWorld(t)
	_, err := NewBucketService(feature.Def{Name: "b"}, w, []float64{0.5}, []string{"only"}, textImage, nil,
		func(*synth.World, *synth.Entity) float64 { return 0 })
	if err == nil {
		t.Error("expected names/cuts mismatch error")
	}
}

func TestEmbeddingClustersByTopic(t *testing.T) {
	lib, pts := testDataset(t, 3000)
	byTopic := map[int][][]float64{}
	for _, p := range pts {
		if p.Modality != synth.Image {
			continue
		}
		v := lib.FeaturizePoint(p).Get("img_embedding")
		if !v.Missing {
			byTopic[p.Entity.Topic] = append(byTopic[p.Entity.Topic], v.Vec)
		}
	}
	var same, diff []float64
	topics := make([]int, 0, len(byTopic))
	for topic := range byTopic {
		topics = append(topics, topic)
	}
	for _, a := range topics {
		vs := byTopic[a]
		if len(vs) >= 2 {
			same = append(same, feature.CosineSimilarity(vs[0], vs[1]))
		}
		for _, b := range topics {
			if b != a && len(byTopic[b]) > 0 && len(vs) > 0 {
				diff = append(diff, feature.CosineSimilarity(vs[0], byTopic[b][0]))
			}
		}
	}
	if mean(same) <= mean(diff)+0.1 {
		t.Errorf("same-topic embedding similarity %.3f should exceed cross-topic %.3f",
			mean(same), mean(diff))
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestFeaturizePointByIndexMatchesByName: FeaturizePoint addresses features
// by resource position; the result must be the vector that setting each
// observation by feature name builds, for every modality (video points go
// through the per-frame merge).
func TestFeaturizePointByIndexMatchesByName(t *testing.T) {
	lib, pts := testDataset(t, 40)
	task, _ := synth.TaskByName("CT1")
	if err := task.Calibrate(lib.World(), 2000, 3); err != nil {
		t.Fatal(err)
	}
	pts = append(pts, synth.SampleVideo(lib.World(), task, 20, 3, 17)...)
	seen := map[synth.Modality]int{}
	for _, p := range pts {
		seen[p.Modality]++
		want := feature.NewVector(lib.Schema())
		for _, r := range lib.Resources() {
			if i, _ := want.Schema().Index(r.Def().Name); Applicable(r, p) {
				observeInto(want, i, r, xrand.Hash(r.Def().Name), p, xrand.New(0))
			}
		}
		if got := lib.FeaturizePoint(p); !got.Equal(want) {
			t.Fatalf("%s point %d: by index %v, by name %v", p.Modality, p.ID, got, want)
		}
	}
	for _, m := range []synth.Modality{synth.Text, synth.Image, synth.Video} {
		if seen[m] == 0 {
			t.Fatalf("no %s point exercised", m)
		}
	}
}

// TestCategoryNamesMatchSprintf pins the precomputed "<prefix><i>" tables of
// the categorical services to the strings Observe used to format per call,
// in range and (formatted on the spot) out of range.
func TestCategoryNamesMatchSprintf(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		n      int
	}{{"t", 24}, {"url", 60}, {"kw", 80}, {"obj", 40}, {"set", 8}, {"x", 0}, {"", 3}} {
		names := newCategoryNames(tc.prefix, tc.n)
		for i := -2; i < tc.n+3; i++ {
			if got, want := names.name(i), fmt.Sprintf("%s%d", tc.prefix, i); got != want {
				t.Fatalf("newCategoryNames(%q, %d).name(%d) = %q, want %q", tc.prefix, tc.n, i, got, want)
			}
		}
	}
	// And through the services: every observed category is a table entry.
	lib, pts := testDataset(t, 30)
	for _, p := range pts {
		v := lib.FeaturizePoint(p)
		for name, prefix := range map[string]string{"topic": "t", "keywords": "kw", "objects": "obj", "url_category": "url", "setting": "set"} {
			for _, c := range v.Get(name).Categories {
				if !strings.HasPrefix(c, prefix) {
					t.Fatalf("feature %q observed category %q, want prefix %q", name, c, prefix)
				}
				if _, err := strconv.Atoi(strings.TrimPrefix(c, prefix)); err != nil {
					t.Fatalf("feature %q observed category %q: not <prefix><index>", name, c)
				}
			}
		}
	}
}

// TestFeaturizePointAllocs pins what a self-owned vector costs, absolutely —
// the services write cells and allocate nothing: the vector and its payload
// header in one object, the cell slab, at most three payload arrays sized
// once, and one generator. Not a Value, []string or []float64 per
// observation, a generator per resource, or a payload array per append.
func TestFeaturizePointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds bookkeeping allocations")
	}
	lib, pts := testDataset(t, 40)
	seen := map[synth.Modality]bool{}
	for _, p := range pts {
		if seen[p.Modality] {
			continue
		}
		seen[p.Modality] = true
		if got := testing.AllocsPerRun(10, func() { lib.FeaturizePoint(p) }); got > 6 {
			t.Errorf("%s point: %v allocations, want <= 6", p.Modality, got)
		}
		rng := xrand.New(0)
		v := feature.NewVector(lib.Schema())
		v.Grow(1<<12, 1<<12)
		for i, r := range lib.Resources() {
			if !Applicable(r, p) {
				continue
			}
			if got := testing.AllocsPerRun(10, func() { observeInto(v, i, r, lib.hashes[i], p, rng) }); got != 0 {
				t.Errorf("%s point: service %q allocates %v per observation, want 0", p.Modality, r.Def().Name, got)
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("modalities exercised: %v, want text and image", seen)
	}
}

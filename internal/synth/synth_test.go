package synth

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crossmodal/internal/xrand"
)

func TestNewWorldValidation(t *testing.T) {
	bad := []Config{
		{},
		{NumTopics: 1, NumObjects: 2, NumUsers: 1, NumURLGroups: 1, NumKeywords: 1, EmbeddingDim: 1},
		{NumTopics: 2, NumObjects: 2, NumUsers: 1, NumURLGroups: 1, NumKeywords: 1, EmbeddingDim: 0},
	}
	for i, cfg := range bad {
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
	if _, err := NewWorld(DefaultConfig()); err != nil {
		t.Fatalf("default config: %v", err)
	}
}

func TestWorldDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	w1, w2 := MustWorld(cfg), MustWorld(cfg)
	for i := 0; i < cfg.NumTopics; i++ {
		if w1.TopicRisk(i) != w2.TopicRisk(i) {
			t.Fatal("same seed produced different topic risks")
		}
	}
	r1 := rand.New(rand.NewSource(3))
	r2 := rand.New(rand.NewSource(3))
	e1 := w1.SampleEntity(r1, Text, 0)
	e2 := w2.SampleEntity(r2, Text, 0)
	if e1.Topic != e2.Topic || e1.User != e2.User || len(e1.Objects) != len(e2.Objects) {
		t.Error("same seed produced different entities")
	}
}

func TestEntityShape(t *testing.T) {
	w := MustWorld(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		e := w.SampleEntity(rng, Image, i)
		if e.Topic < 0 || e.Topic >= w.cfg.NumTopics {
			t.Fatalf("topic out of range: %d", e.Topic)
		}
		if len(e.Objects) < 1 || len(e.Objects) > 3 {
			t.Fatalf("objects count = %d", len(e.Objects))
		}
		seen := map[int]bool{}
		for _, o := range e.Objects {
			if seen[o] {
				t.Fatal("duplicate object")
			}
			seen[o] = true
			if o < 0 || o >= w.cfg.NumObjects {
				t.Fatalf("object out of range: %d", o)
			}
		}
		if len(e.Keywords) < 1 || len(e.Keywords) > 4 {
			t.Fatalf("keywords count = %d", len(e.Keywords))
		}
	}
}

func TestTopicDriftShiftsPrior(t *testing.T) {
	cfg := DefaultConfig()
	w := MustWorld(cfg)
	rng := rand.New(rand.NewSource(5))
	const n = 30000
	textCounts := make([]float64, cfg.NumTopics)
	imgCounts := make([]float64, cfg.NumTopics)
	for i := 0; i < n; i++ {
		textCounts[w.SampleEntity(rng, Text, i).Topic]++
		imgCounts[w.SampleEntity(rng, Image, i).Topic]++
	}
	var tv float64 // total variation distance between empirical priors
	for i := range textCounts {
		tv += math.Abs(textCounts[i]-imgCounts[i]) / n
	}
	tv /= 2
	if tv < 0.02 {
		t.Errorf("total variation between modality priors = %v, want noticeable drift", tv)
	}
}

func TestTaskCalibration(t *testing.T) {
	w := MustWorld(DefaultConfig())
	for _, task := range StandardTasks() {
		if err := task.Calibrate(w, 40000, 11); err != nil {
			t.Fatalf("%s: %v", task.Name, err)
		}
		rng := rand.New(rand.NewSource(99))
		pos := 0
		const n = 40000
		for i := 0; i < n; i++ {
			if task.Label(w, w.SampleEntity(rng, Text, i)) > 0 {
				pos++
			}
		}
		rate := float64(pos) / n
		if math.Abs(rate-task.TargetPositiveRate) > task.TargetPositiveRate*0.35+0.002 {
			t.Errorf("%s: positive rate %v, target %v", task.Name, rate, task.TargetPositiveRate)
		}
	}
}

func TestTaskCalibrateErrors(t *testing.T) {
	w := MustWorld(DefaultConfig())
	bad := &Task{Name: "bad", TargetPositiveRate: 0}
	if err := bad.Calibrate(w, 1000, 1); err == nil {
		t.Error("expected error for zero positive rate")
	}
	ok := &Task{Name: "small", TargetPositiveRate: 0.1, TopicWeight: 1}
	if err := ok.Calibrate(w, 10, 1); err == nil {
		t.Error("expected error for tiny calibration sample")
	}
}

func TestLabelPanicsUncalibrated(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task := &Task{Name: "x", TargetPositiveRate: 0.1, TopicWeight: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	task.Label(w, w.SampleEntity(rand.New(rand.NewSource(1)), Text, 0))
}

func TestTaskByName(t *testing.T) {
	task, err := TaskByName("CT3")
	if err != nil || task.Name != "CT3" {
		t.Fatalf("TaskByName(CT3) = %v, %v", task, err)
	}
	if _, err := TaskByName("CT99"); err == nil {
		t.Error("expected error for unknown task")
	}
}

func TestBuildDataset(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task, _ := TaskByName("CT1")
	cfg := DatasetConfig{Seed: 3, NumText: 2000, NumUnlabeledImage: 800, NumHandLabelPool: 500, NumTest: 600}
	ds, err := BuildDataset(w, task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.LabeledText) != 2000 || len(ds.UnlabeledImage) != 800 ||
		len(ds.HandLabelPool) != 500 || len(ds.TestImage) != 600 {
		t.Fatal("corpus sizes wrong")
	}
	seen := map[int]bool{}
	all := append(append(append(append([]*Point{}, ds.LabeledText...), ds.UnlabeledImage...), ds.HandLabelPool...), ds.TestImage...)
	for _, p := range all {
		if seen[p.ID] {
			t.Fatal("duplicate point ID across corpora (leakage)")
		}
		seen[p.ID] = true
		if p.Label != 1 && p.Label != -1 {
			t.Fatalf("label = %d", p.Label)
		}
	}
	for _, p := range ds.LabeledText {
		if p.Modality != Text {
			t.Fatal("text corpus has non-text point")
		}
	}
	for _, p := range ds.TestImage {
		if p.Modality != Image {
			t.Fatal("test corpus has non-image point")
		}
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task, _ := TaskByName("CT1")
	if _, err := BuildDataset(w, task, DatasetConfig{}); err == nil {
		t.Error("expected error for zero sizes")
	}
}

func TestDatasetPositiveRates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := MustWorld(DefaultConfig())
	for _, task := range StandardTasks() {
		ds, err := BuildDataset(w, task, DefaultDatasetConfig())
		if err != nil {
			t.Fatal(err)
		}
		rate := PositiveRate(ds.LabeledText)
		if math.Abs(rate-task.TargetPositiveRate) > task.TargetPositiveRate*0.5+0.004 {
			t.Errorf("%s: text positive rate %v, target %v", task.Name, rate, task.TargetPositiveRate)
		}
		if PositiveRate(ds.TestImage) == 0 {
			t.Errorf("%s: test set has no positives", task.Name)
		}
	}
}

func TestObservationRNGDeterminism(t *testing.T) {
	p := &Point{ID: 1, Seed: 42}
	a := p.ObservationRNG("svc").Float64()
	b := p.ObservationRNG("svc").Float64()
	c := p.ObservationRNG("other").Float64()
	if a != b {
		t.Error("same channel should give identical streams")
	}
	if a == c {
		t.Error("different channels should give different streams")
	}
	f0 := p.FrameRNG("svc", 0).Float64()
	f1 := p.FrameRNG("svc", 1).Float64()
	if f0 == f1 {
		t.Error("different frames should give different streams")
	}
}

// TestSeedObservationMatchesObservationRNG: one generator reseeded per
// channel (and per video frame) — already drawn from, so stale state would
// show — yields exactly the streams the per-channel constructors always
// produced, for every modality.
func TestSeedObservationMatchesObservationRNG(t *testing.T) {
	same := func(where string, got, want *rand.Rand) {
		t.Helper()
		for k := 0; k < 64; k++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("%s draw %d: Float64 %v, want %v", where, k, g, w)
			}
			if g, w := got.Intn(k+1), want.Intn(k+1); g != w {
				t.Fatalf("%s draw %d: Intn %v, want %v", where, k, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("%s draw %d: NormFloat64 %v, want %v", where, k, g, w)
			}
		}
	}
	rng := xrand.New(99)
	for _, p := range []*Point{
		{ID: 1, Seed: 42, Modality: Text},
		{ID: 2, Seed: 43, Modality: Image},
		{ID: 3, Seed: 44, Modality: Video, Frames: 5},
	} {
		for _, ch := range []string{"topic", "objects", "image_embedding"} {
			where := fmt.Sprintf("%s %q", p.Modality, ch)
			sub := xrand.HashString(p.Seed, ch)
			p.SeedObservation(rng, ch)
			same(where, rng, xrand.New(int64(sub)))
			p.SeedObservation(rng, ch)
			same(where, rng, p.ObservationRNG(ch))
			p.SeedChannel(rng, xrand.Hash(ch))
			same(where+" by kept hash", rng, p.ObservationRNG(ch))
			for f := 0; f < p.Frames; f++ {
				where := fmt.Sprintf("%s frame %d", where, f)
				p.SeedFrame(rng, ch, f)
				same(where, rng, xrand.New(int64(xrand.Mix(sub+uint64(f+1)*0x9e3779b97f4a7c15))))
				p.SeedFrame(rng, ch, f)
				same(where, rng, p.FrameRNG(ch, f))
			}
		}
	}
}

func TestSampleVideo(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task, _ := TaskByName("CT1")
	if err := task.Calibrate(w, 5000, 2); err != nil {
		t.Fatal(err)
	}
	vids := SampleVideo(w, task, 10, 4, 9)
	if len(vids) != 10 {
		t.Fatalf("got %d videos", len(vids))
	}
	for _, v := range vids {
		if v.Modality != Video || v.Frames != 4 {
			t.Fatalf("bad video point: %+v", v)
		}
	}
}

func TestLabelsAndPositiveRate(t *testing.T) {
	pts := []*Point{{Label: 1}, {Label: -1}, {Label: 1}, {Label: -1}}
	if got := PositiveRate(pts); got != 0.5 {
		t.Errorf("PositiveRate = %v", got)
	}
	if got := PositiveRate(nil); got != 0 {
		t.Errorf("PositiveRate(nil) = %v", got)
	}
	ls := Labels(pts)
	if len(ls) != 4 || ls[0] != 1 || ls[1] != -1 {
		t.Errorf("Labels = %v", ls)
	}
}
